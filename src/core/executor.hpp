// The filter-first executor: every zonal entry point runs Steps 1-4
// through plan_zonal + execute_plan.
//
// Step 2 needs only tile boxes, no cell data, so it runs first and
// yields the demanded-tile set:
//   * outside tiles   (no polygon)        -> never read at all,
//   * inside tiles    (Step-3 consumers)  -> one Step-1 histogram each,
//   * intersect tiles (Step-4 consumers)  -> cells kept for PIP.
// Step 1 then histograms only the inside tiles, into a compact table
// (one row per inside tile, not per raster tile), and Steps 3-4 follow
// unchanged. Histograms are bit-identical to histogramming every tile
// first, because Step 3 reads only inside-tile rows.
//
// Entry points compose: ZonalPipeline::run plans and executes; the BQ
// overload decodes plan.cell_tiles between the two (Step 0); run_series
// plans once and executes per band; run_hybrid executes two intersect
// shares on two devices; QueryEngine executes through its TileCache.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "core/tile_cache.hpp"

namespace zh {

struct ZonalPlan {
  TilingScheme tiling{0, 0, 1};
  /// Step-2 groups. inside.tid_v holds compact Step-1 table slots, not
  /// tile ids: slot s is tile hist_tiles[s]. intersect.tid_v holds tile
  /// ids.
  PairingResult pairing;
  /// Distinct tiles referenced by inside pairs, in first-reference
  /// order; execute_plan histograms exactly these.
  std::vector<TileId> hist_tiles;
  /// Ascending ids of every tile whose cells execute_plan reads (inside
  /// and intersect tiles); a BQ caller decodes exactly these.
  std::vector<TileId> cell_tiles;
  /// Planning cost: Step 2 seconds and the pairing counters
  /// (tiles_total, candidate_pairs, pairs_*, polygon_vertices). Callers
  /// add them once per plan, however many times the plan executes.
  StepTimes times;
  WorkCounters work;
};

/// Step 2 plus the demanded-tile compaction.
[[nodiscard]] ZonalPlan plan_zonal(const PolygonSet& polygons,
                                   const TilingScheme& tiling,
                                   const GeoTransform& transform);

/// Step-1 rows served through a TileCache, keyed by the raster's
/// fingerprint_raster() and the config's (tile_size, bins).
struct CachedTiles {
  TileCache* cache = nullptr;
  std::uint64_t raster_fp = 0;
};

/// Steps 1, 3 and 4 of `plan` over `raster`, which must cover the
/// plan's tiling; only plan.cell_tiles are read. The compact Step-1
/// table lives in `ws`. Fills times.seconds[1,3,4] and every execution
/// counter; cells_total is the raster's cell count, or with `cached`
/// the cells this call's cache fills counted.
[[nodiscard]] ZonalResult execute_plan(Device& device, const ZonalPlan& plan,
                                       const DemRaster& raster,
                                       const PolygonSoA& soa,
                                       const ZonalConfig& config,
                                       ZonalWorkspace& ws,
                                       const CachedTiles* cached = nullptr);

}  // namespace zh
