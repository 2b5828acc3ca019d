// Multi-query batch engine over a shared Step-1 tile-histogram cache.
//
// The serving shape (Raptor Zonal Statistics): many zonal queries arrive
// against a small catalog of large rasters. ZonalPipeline pays Step 1 --
// the Table-2 dominant cost -- on every call even though tile histograms
// are zone-independent. QueryEngine registers rasters once (fingerprinted
// for cache keying), then executes each query as:
//
//   Step 2 (pairing) -> Step 1 via TileCache (only tiles demanded by
//   inside pairs; hits skip the cell scan entirely) -> Step 3 on a
//   compact per-demanded-tile table -> Step 4 refinement, unchanged.
//
// Results are bit-identical to ZonalPipeline::run on the same inputs:
// the cache stores exactly the histograms CellAggrKernel would produce
// (same nodata skip, same top-bin clamp), and Steps 3-4 run the same
// kernels on the same pairing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "core/tile_cache.hpp"
#include "device/device.hpp"
#include "geom/polygon.hpp"
#include "grid/raster.hpp"

namespace zh {

struct QueryEngineConfig {
  /// Tile edge shared by every query (part of the cache binning key).
  /// Step 4 runs ZonalConfig's defaults.
  std::int64_t tile_size = 360;
  TileCacheConfig cache;
};

/// Index of a registered raster within the engine's catalog.
using RasterHandle = std::size_t;

/// One zonal query: a zone layer joined against a catalog raster under a
/// binning. Queries differing only in zones share every cache entry.
struct ZonalQuery {
  RasterHandle raster = 0;
  const PolygonSet* zones = nullptr;  ///< must outlive run()/run_batch()
  BinIndex bins = 5000;
};

struct QueryResult {
  HistogramSet per_polygon;
  StepTimes times;  ///< seconds[1] = cache fill+assembly wall time
  /// Same accounting as ZonalPipeline, except cells_total counts only
  /// cells actually histogrammed by this query's cache fills -- a fully
  /// warm query reports 0.
  WorkCounters work;
  std::uint64_t cache_hits = 0;    ///< cache hits while running this query
  std::uint64_t cache_misses = 0;  ///< cache misses (fills started)
};

class QueryEngine {
 public:
  QueryEngine(Device& device, QueryEngineConfig config = {});

  /// Register a raster with the catalog. The raster is fingerprinted
  /// once (dims/transform/nodata + payload CRC) so equal content maps
  /// to the same cache entries. The caller keeps ownership; the raster
  /// must outlive the engine.
  RasterHandle add_raster(const DemRaster& raster);

  [[nodiscard]] std::size_t raster_count() const { return rasters_.size(); }

  /// Execute one query through the cached pipeline.
  [[nodiscard]] QueryResult run(const ZonalQuery& query);

  /// Execute a batch in order. Later queries reuse every tile histogram
  /// the earlier ones filled (subject to the cache budget).
  [[nodiscard]] std::vector<QueryResult> run_batch(
      const std::vector<ZonalQuery>& queries);

  [[nodiscard]] TileCacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] const TileCache& cache() const { return cache_; }
  [[nodiscard]] const QueryEngineConfig& config() const { return config_; }

 private:
  struct CatalogEntry {
    const DemRaster* raster = nullptr;
    std::uint64_t fingerprint = 0;
  };

  Device* device_;
  QueryEngineConfig config_;
  TileCache cache_;
  std::vector<CatalogEntry> rasters_;
};

}  // namespace zh
