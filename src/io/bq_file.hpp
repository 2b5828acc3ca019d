// .bq: on-disk container for BQ-Tree-compressed rasters (version 3).
//
// The paper ships the CONUS SRTM data as BQ-Tree streams precisely so the
// (much smaller) compressed form is what moves across disk and PCIe;
// this format persists a BqCompressedRaster so pipelines can start from
// compressed input without re-encoding.
//
// Layout (little-endian):
//   magic   "ZBQF"
//   version u32                currently 3
//   header blob:
//     rows i64, cols i64, tile_size i64
//     geotransform             4 doubles
//     tile count u64
//     has_nodata u8, nodata u16  (version 3 only; 0, 0 when absent)
//   header CRC32               u32 over the header blob
//   per tile:
//     rows u32, cols u32, plane_mask u16, payload size u32, payload bytes
//   payload CRC32              u32 over all tile-record bytes
// The CRCs turn truncation and bit-flips into IoError instead of silently
// decoded garbage; legacy checksum-free "ZBQ1" files are rejected with a
// re-encode hint. Version-2 files (no nodata fields) still read, with no
// nodata value.
#pragma once

#include <string>

#include "bqtree/compressed_raster.hpp"

namespace zh {

/// Write `raster` to `path`. Throws IoError on failure.
void write_bq(const std::string& path, const BqCompressedRaster& raster);

/// Read a .bq file. Throws IoError on malformed, truncated, corrupted
/// (CRC mismatch), or legacy/unsupported-version input.
[[nodiscard]] BqCompressedRaster read_bq(const std::string& path);

}  // namespace zh
