#include "core/hybrid.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "core/executor.hpp"
#include "core/perf_model.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

/// Split the intersect groups at a cumulative-cost point: groups
/// [0, split) go to the primary device, the rest to the secondary.
/// Group-granular (a polygon's row is owned by exactly one device, so
/// the non-atomic Fig.-5 kernel stays valid on both sides).
std::size_t split_point(const PolygonTileGroups& groups,
                        const PolygonSoA& soa, const TilingScheme& tiling,
                        double fraction) {
  std::vector<double> cost(groups.group_count(), 0.0);
  double total = 0.0;
  for (std::size_t g = 0; g < groups.group_count(); ++g) {
    const auto [p_f, p_t] = soa.vertex_range(groups.pid_v[g]);
    double cells = 0.0;
    for (std::uint64_t k = 0; k < groups.num_v[g]; ++k) {
      cells += static_cast<double>(
          tiling.tile_window(groups.tid_v[groups.pos_v[g] + k])
              .cell_count());
    }
    cost[g] = cells * static_cast<double>(p_t - p_f);
    total += cost[g];
  }
  const double target = total * std::clamp(fraction, 0.0, 1.0);
  double acc = 0.0;
  std::size_t split = 0;
  while (split < cost.size() && acc + cost[split] <= target) {
    acc += cost[split];
    ++split;
  }
  return split;
}

/// The dispatch arrays for a contiguous subrange of groups (offsets
/// rebased so tid_v stays shared-shaped).
PolygonTileGroups slice_groups(const PolygonTileGroups& g,
                               std::size_t begin, std::size_t end) {
  PolygonTileGroups out;
  if (begin >= end) return out;
  const std::uint64_t base = g.pos_v[begin];
  out.pid_v.assign(g.pid_v.begin() + begin, g.pid_v.begin() + end);
  out.num_v.assign(g.num_v.begin() + begin, g.num_v.begin() + end);
  out.pos_v.resize(end - begin);
  for (std::size_t i = 0; i < out.pos_v.size(); ++i) {
    out.pos_v[i] = g.pos_v[begin + i] - base;
  }
  const std::uint32_t tid_end =
      end < g.group_count() ? g.pos_v[end]
                            : static_cast<std::uint32_t>(g.tid_v.size());
  out.tid_v.assign(g.tid_v.begin() + base, g.tid_v.begin() + tid_end);
  return out;
}

}  // namespace

HybridResult run_hybrid(Device& primary, Device& secondary,
                        const DemRaster& raster,
                        const PolygonSet& polygons,
                        const HybridConfig& config) {
  const ZonalConfig& zc = config.zonal;
  ZH_REQUIRE(zc.tile_size >= 1, "tile size must be positive");
  ZH_REQUIRE(zc.bins >= 1, "bin count must be positive");
  ZH_TRACE_SPAN("hybrid.run", "pipeline");

  const ZonalPlan plan = plan_zonal(
      polygons, TilingScheme(raster.rows(), raster.cols(), zc.tile_size),
      raster.transform());
  const PolygonSoA soa = PolygonSoA::build(polygons);

  // Step 4: split by modeled device speeds unless a fraction is forced.
  HybridResult result;
  double fraction = config.primary_fraction;
  if (fraction < 0.0) {
    const double sp =
        PerfModel::device_step_scale(primary.profile(), 4);
    const double ss =
        PerfModel::device_step_scale(secondary.profile(), 4);
    fraction = sp / (sp + ss);
  }
  result.primary_fraction = std::clamp(fraction, 0.0, 1.0);
  const PolygonTileGroups& intersect = plan.pairing.intersect;
  const std::size_t split =
      split_point(intersect, soa, plan.tiling, result.primary_fraction);

  // The primary executes Steps 1-3 and the head share of Step 4; the
  // secondary only the tail share (its plan has no inside tiles). A
  // polygon's groups live entirely on one side, so each device owns its
  // rows and the merge is a plain add.
  ZonalPlan head = plan;
  head.pairing.intersect = slice_groups(intersect, 0, split);
  ZonalPlan tail;
  tail.tiling = plan.tiling;
  tail.pairing.intersect =
      slice_groups(intersect, split, intersect.group_count());

  ZonalWorkspace primary_ws;
  ZonalWorkspace secondary_ws;
  ZonalResult tail_result;
  ZonalResult head_result;
  std::exception_ptr secondary_error;
  {
    // The secondary device runs on its own thread, concurrently with the
    // primary; the jthread joins before the results are read, also when
    // the primary throws.
    const std::jthread secondary_thread([&] {
      ZH_TRACE_SPAN("hybrid.secondary", "pipeline");
      try {
        tail_result =
            execute_plan(secondary, tail, raster, soa, zc, secondary_ws);
      } catch (...) {
        secondary_error = std::current_exception();
      }
    });
    ZH_TRACE_SPAN("hybrid.primary", "pipeline");
    head_result = execute_plan(primary, head, raster, soa, zc, primary_ws);
  }
  if (secondary_error) std::rethrow_exception(secondary_error);
  result.primary_seconds = head_result.times.seconds[4];
  result.secondary_seconds = tail_result.times.seconds[4];

  Timer merge_timer;
  result.per_polygon = std::move(head_result.per_polygon);
  result.per_polygon.add(tail_result.per_polygon);
  result.times = plan.times;
  result.times += head_result.times;
  result.times.seconds[4] =
      std::max(result.primary_seconds, result.secondary_seconds);
  result.times.overhead.merge = merge_timer.seconds();
  result.work = plan.work;
  result.work += head_result.work;
  result.work += tail_result.work;
  // Steps 0-1 cover the raster once, on the primary.
  result.work.cells_total = head_result.work.cells_total;
  result.work.raw_bytes = head_result.work.raw_bytes;
  return result;
}

}  // namespace zh
