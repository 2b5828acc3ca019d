#include "core/executor.hpp"

#include <algorithm>
#include <atomic>

#include "core/step3_aggregate.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

/// The Step-1 counting loop: histogram window `w` of `raster` into
/// `out`, skipping nodata and folding values >= bins into the top bin
/// exactly as CellAggrKernel does. One block owns one tile row of the
/// table, so the adds are plain.
void count_tile(const DemRaster& raster, const CellWindow& w, BinIndex bins,
                BinCount* out, std::uint64_t& clamped) {
  const std::optional<CellValue> nodata = raster.nodata();
  for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
    for (const CellValue v :
         raster.row(r).subspan(static_cast<std::size_t>(w.col0),
                               static_cast<std::size_t>(w.cols))) {
      if (nodata && v == *nodata) continue;
      ++out[bin_index(v, bins, clamped)];
    }
  }
}

}  // namespace

ZonalPlan plan_zonal(const PolygonSet& polygons, const TilingScheme& tiling,
                     const GeoTransform& transform) {
  Timer timer;
  ZonalPlan plan;
  plan.tiling = tiling;
  plan.pairing = pair_and_group(polygons, tiling, transform);

  // Demanded-tile compaction: the i-th distinct tile an inside pair
  // references gets Step-1 slot i, and the inside groups are remapped
  // to slots. kCellsOnly marks intersect-only tiles.
  constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  constexpr std::uint32_t kCellsOnly = kNoSlot - 1;
  std::vector<std::uint32_t> slot(tiling.tile_count(), kNoSlot);
  for (TileId& t : plan.pairing.inside.tid_v) {
    if (slot[t] == kNoSlot) {
      slot[t] = static_cast<std::uint32_t>(plan.hist_tiles.size());
      plan.hist_tiles.push_back(t);
    }
    t = slot[t];
  }
  for (const TileId t : plan.pairing.intersect.tid_v) {
    if (slot[t] == kNoSlot) slot[t] = kCellsOnly;
  }
  for (std::size_t t = 0; t < slot.size(); ++t) {
    if (slot[t] != kNoSlot) plan.cell_tiles.push_back(static_cast<TileId>(t));
  }

  plan.times.seconds[2] = timer.seconds();
  ZH_LATENCY_RECORD("latency.step2", plan.times.seconds[2]);
  plan.work.tiles_total = tiling.tile_count();
  plan.work.candidate_pairs = plan.pairing.candidate_pairs;
  plan.work.pairs_inside = plan.pairing.inside.pair_count();
  plan.work.pairs_intersect = plan.pairing.intersect.pair_count();
  plan.work.polygon_vertices = polygons.vertex_count();
  return plan;
}

ZonalResult execute_plan(Device& device, const ZonalPlan& plan,
                         const DemRaster& raster, const PolygonSoA& soa,
                         const ZonalConfig& config, ZonalWorkspace& ws,
                         const CachedTiles* cached) {
  const TilingScheme& tiling = plan.tiling;
  ZH_REQUIRE(tiling.raster_rows() == raster.rows() &&
                 tiling.raster_cols() == raster.cols(),
             "plan tiling does not match raster dims");
  const BinIndex bins = config.bins;
  ZonalResult result;
  result.per_polygon = HistogramSet(soa.polygon_count(), bins);
  result.work.raw_bytes =
      static_cast<std::uint64_t>(raster.cell_count()) * sizeof(CellValue);
  Timer timer;

  // Step 1 (CellAggrKernel): one block per inside tile, each counting
  // its tile into its own row of the compact table -- or, with a cache,
  // copying the row from the cache, which counts it once per key.
  const std::size_t rows = plan.hist_tiles.size();
  ws.tile_hist.reset(rows, bins);
  std::atomic<std::uint64_t> clamped{0};
  std::atomic<std::uint64_t> counted{0};
  {
    ZH_TRACE_SPAN("step1.tile_hist", "pipeline");
    const std::uint64_t binning_fp =
        cached != nullptr ? fingerprint_binning(config.tile_size, bins) : 0;
    BinCount* table = ws.tile_hist.flat().data();
    device.launch_named(
        "CellAggrKernel", static_cast<std::uint32_t>(rows),
        [&](const BlockContext& ctx) {
          const TileId tile = plan.hist_tiles[ctx.block_id()];
          const CellWindow w = tiling.tile_window(tile);
          BinCount* row =
              table + static_cast<std::size_t>(ctx.block_id()) * bins;
          std::uint64_t local_clamped = 0;
          const auto count = [&](BinCount* out) {
            count_tile(raster, w, bins, out, local_clamped);
            counted.fetch_add(static_cast<std::uint64_t>(w.cell_count()),
                              std::memory_order_relaxed);
          };
          if (cached == nullptr) {
            count(row);
          } else {
            const TileHistPtr hist = cached->cache->get_or_fill(
                {.raster_fp = cached->raster_fp,
                 .band = 0,
                 .tile = tile,
                 .binning_fp = binning_fp},
                [&] {
                  std::vector<BinCount> h(static_cast<std::size_t>(bins), 0);
                  count(h.data());
                  return h;
                });
            ZH_ASSERT(hist != nullptr &&
                          hist->size() == static_cast<std::size_t>(bins),
                      "cached tile histogram has wrong bin count");
            std::copy(hist->begin(), hist->end(), row);
          }
          clamped.fetch_add(local_clamped, std::memory_order_relaxed);
        });
  }
  note_values_clamped(clamped.load());
  ZH_COUNTER_ADD("step1.cells_histogrammed", counted.load());
  ZH_COUNTER_ADD("step1.tiles", rows);
  result.work.cells_total =
      cached != nullptr ? counted.load()
                        : static_cast<std::uint64_t>(raster.cell_count());
  result.times.seconds[1] = timer.seconds();
  ZH_LATENCY_RECORD("latency.step1", result.times.seconds[1]);

  // Step 3: aggregate the inside tiles' rows per polygon.
  timer.reset();
  aggregate_inside_tiles(device, plan.pairing.inside, ws.tile_hist,
                         result.per_polygon);
  result.times.seconds[3] = timer.seconds();
  ZH_LATENCY_RECORD("latency.step3", result.times.seconds[3]);
  result.work.aggregate_bin_adds =
      static_cast<std::uint64_t>(plan.pairing.inside.pair_count()) * bins;

  // Step 4: cell-in-polygon refinement on the intersect tiles.
  timer.reset();
  const RefineCounters rc = refine_boundary_tiles(
      device, plan.pairing.intersect, soa, raster, tiling,
      result.per_polygon, config.refine_granularity, config.refine_strategy);
  result.times.seconds[4] = timer.seconds();
  ZH_LATENCY_RECORD("latency.step4", result.times.seconds[4]);
  result.work.pip_cell_tests = rc.cell_tests;
  result.work.pip_edge_tests = rc.edge_tests;
  result.work.pip_rows_scanned = rc.rows_scanned;
  result.work.pip_run_cells = rc.run_cells;
  result.work.cells_in_polygons = result.per_polygon.total();
  return result;
}

}  // namespace zh
