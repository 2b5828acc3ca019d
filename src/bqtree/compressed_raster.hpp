// Tile-granular BQ-Tree-compressed raster.
//
// The paper compresses the 40 GB SRTM CONUS raster to 7.3 GB (~18%) and
// decodes it *per tile* on the device (Step 0), so compression granularity
// must match the zonal tiling. This container encodes each tile of a
// TilingScheme independently; the pipeline decodes exactly the tiles it
// needs, in parallel.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bqtree/bqtree.hpp"
#include "common/types.hpp"
#include "grid/raster.hpp"
#include "grid/tiling.hpp"

namespace zh {

class BqCompressedRaster {
 public:
  /// Encode `raster` tile by tile (tiles encoded in parallel on the
  /// global pool). The raster's nodata value is kept.
  static BqCompressedRaster encode(const DemRaster& raster,
                                   std::int64_t tile_size);

  /// Assemble from already-encoded tiles (deserialization path). Tile
  /// dims must match the tiling's windows; throws IoError otherwise.
  static BqCompressedRaster from_tiles(
      const TilingScheme& tiling, const GeoTransform& transform,
      std::vector<BqEncodedTile> tiles,
      std::optional<CellValue> nodata = std::nullopt);

  [[nodiscard]] const TilingScheme& tiling() const { return tiling_; }
  [[nodiscard]] const GeoTransform& transform() const { return transform_; }
  /// The source raster's nodata value; every decoded raster carries it.
  [[nodiscard]] std::optional<CellValue> nodata() const { return nodata_; }

  [[nodiscard]] const BqEncodedTile& tile(TileId id) const {
    ZH_REQUIRE(id < tiles_.size(), "tile id out of range");
    return tiles_[id];
  }

  /// Decode one tile into `out`, sized tile_window(id).cell_count(),
  /// row-major within the tile window.
  void decode_tile(TileId id, std::span<CellValue> out) const {
    bq_decode(tile(id), out);
  }

  /// Decode the listed tiles (in parallel) into a full-extent raster.
  /// Cells of unlisted tiles are zero and must not be read.
  [[nodiscard]] DemRaster decode_tiles(std::span<const TileId> ids) const;

  /// Decode the full raster (decode_tiles over every tile).
  [[nodiscard]] DemRaster decode_all() const;

  [[nodiscard]] std::size_t compressed_bytes() const;
  [[nodiscard]] std::size_t raw_bytes() const;
  /// compressed / raw, the figure the paper reports as ~18%.
  [[nodiscard]] double compression_ratio() const {
    const std::size_t raw = raw_bytes();
    return raw == 0 ? 0.0
                    : static_cast<double>(compressed_bytes()) /
                          static_cast<double>(raw);
  }

 private:
  BqCompressedRaster(TilingScheme tiling, GeoTransform transform,
                     std::optional<CellValue> nodata)
      : tiling_(tiling), transform_(transform), nodata_(nodata) {}

  TilingScheme tiling_{0, 0, 1};
  GeoTransform transform_;
  std::optional<CellValue> nodata_;
  std::vector<BqEncodedTile> tiles_;
};

}  // namespace zh
