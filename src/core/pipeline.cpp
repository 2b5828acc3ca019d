#include "core/pipeline.hpp"

#include "cluster/partition.hpp"
#include "core/executor.hpp"
#include "obs/obs.hpp"

namespace zh {

void append_work_counters(obs::RunReport& report, const WorkCounters& work) {
  auto add = [&](const char* name, std::uint64_t v) {
    report.counters.emplace_back(name, v);
  };
  add("cells_total", work.cells_total);
  add("tiles_total", work.tiles_total);
  add("tiles_decoded", work.tiles_decoded);
  add("candidate_pairs", work.candidate_pairs);
  add("pairs_inside", work.pairs_inside);
  add("pairs_intersect", work.pairs_intersect);
  add("polygon_vertices", work.polygon_vertices);
  add("aggregate_bin_adds", work.aggregate_bin_adds);
  add("pip_cell_tests", work.pip_cell_tests);
  add("pip_edge_tests", work.pip_edge_tests);
  add("pip_rows_scanned", work.pip_rows_scanned);
  add("pip_run_cells", work.pip_run_cells);
  add("cells_in_polygons", work.cells_in_polygons);
  add("compressed_bytes", work.compressed_bytes);
  add("raw_bytes", work.raw_bytes);
}

WorkCounters& WorkCounters::operator+=(const WorkCounters& o) {
  cells_total += o.cells_total;
  tiles_total += o.tiles_total;
  tiles_decoded += o.tiles_decoded;
  candidate_pairs += o.candidate_pairs;
  pairs_inside += o.pairs_inside;
  pairs_intersect += o.pairs_intersect;
  polygon_vertices = std::max(polygon_vertices, o.polygon_vertices);
  aggregate_bin_adds += o.aggregate_bin_adds;
  pip_cell_tests += o.pip_cell_tests;
  pip_edge_tests += o.pip_edge_tests;
  pip_rows_scanned += o.pip_rows_scanned;
  pip_run_cells += o.pip_run_cells;
  cells_in_polygons += o.cells_in_polygons;
  compressed_bytes += o.compressed_bytes;
  raw_bytes += o.raw_bytes;
  return *this;
}

namespace {

/// Execute `plan` with the caller's workspace (or a local one) and add
/// the plan's own Step-2 accounting.
ZonalResult run_plan(Device& device, const ZonalConfig& config,
                     const ZonalPlan& plan, const DemRaster& raster,
                     const PolygonSoA& soa, ZonalWorkspace* workspace) {
  ZonalWorkspace local_ws;
  ZonalResult result =
      execute_plan(device, plan, raster, soa, config,
                   workspace != nullptr ? *workspace : local_ws);
  result.times += plan.times;
  result.work += plan.work;
  return result;
}

}  // namespace

ZonalResult ZonalPipeline::run(const DemRaster& raster,
                               const PolygonSet& polygons,
                               ZonalWorkspace* workspace) const {
  const PolygonSoA soa = PolygonSoA::build(polygons);
  return run(raster, polygons, soa, workspace);
}

ZonalResult ZonalPipeline::run(const DemRaster& raster,
                               const PolygonSet& polygons,
                               const PolygonSoA& soa,
                               ZonalWorkspace* workspace) const {
  ZH_REQUIRE(soa.polygon_count() == polygons.size(),
             "SoA does not match polygon set");
  ZH_TRACE_SPAN("pipeline.run", "pipeline");
  const ZonalPlan plan = plan_zonal(
      polygons, TilingScheme(raster.rows(), raster.cols(), config_.tile_size),
      raster.transform());
  return run_plan(*device_, config_, plan, raster, soa, workspace);
}

ZonalResult ZonalPipeline::run_partitioned(const DemRaster& raster,
                                           const PolygonSet& polygons,
                                           int part_rows, int part_cols,
                                           ZonalWorkspace* workspace) const {
  ZH_TRACE_SPAN("pipeline.run_partitioned", "pipeline");
  const PolygonSoA soa = PolygonSoA::build(polygons);
  const std::vector<CellWindow> windows = grid_partition(
      raster.rows(), raster.cols(), part_rows, part_cols,
      config_.tile_size);

  ZonalWorkspace local_ws;
  ZonalWorkspace& ws = workspace != nullptr ? *workspace : local_ws;

  ZonalResult merged;
  merged.per_polygon = HistogramSet(polygons.size(), config_.bins);
  for (const CellWindow& win : windows) {
    const DemRaster part = raster.copy_window(win);
    ZonalResult r = run(part, polygons, soa, &ws);
    Timer merge_timer;
    merged.per_polygon.add(r.per_polygon);
    merged.times += r.times;
    merged.work += r.work;
    merged.times.overhead.merge += merge_timer.seconds();
  }
  // Window-level counters that must not sum.
  merged.work.polygon_vertices = polygons.vertex_count();
  merged.work.cells_in_polygons = merged.per_polygon.total();
  return merged;
}

ZonalResult ZonalPipeline::run(const BqCompressedRaster& compressed,
                               const PolygonSet& polygons,
                               ZonalWorkspace* workspace) const {
  ZH_REQUIRE(compressed.tiling().tile_size() == config_.tile_size,
             "compressed raster tiling does not match pipeline tile size");
  ZH_TRACE_SPAN("pipeline.run_compressed", "pipeline");
  const ZonalPlan plan =
      plan_zonal(polygons, compressed.tiling(), compressed.transform());
  // Step 0: decode only the tiles the plan reads, in parallel (stand-in
  // for the paper's on-device BQ-Tree decoding).
  Timer timer;
  const DemRaster raster = compressed.decode_tiles(plan.cell_tiles);
  const double decode_seconds = timer.seconds();

  ZonalResult result = run_plan(*device_, config_, plan, raster,
                                PolygonSoA::build(polygons), workspace);
  result.times.seconds[0] = decode_seconds;
  result.work.tiles_decoded = plan.cell_tiles.size();
  result.work.compressed_bytes = compressed.compressed_bytes();
  return result;
}

}  // namespace zh
