#include "core/multiband.hpp"

#include "core/executor.hpp"

namespace zh {

SeriesResult run_series(Device& device, std::span<const DemRaster> bands,
                        const PolygonSet& polygons,
                        const ZonalConfig& config,
                        ZonalWorkspace* workspace) {
  ZH_REQUIRE(config.tile_size >= 1, "tile size must be positive");
  ZH_REQUIRE(config.bins >= 1, "bin count must be positive");
  SeriesResult result;
  if (bands.empty()) return result;

  const DemRaster& first = bands.front();
  for (const DemRaster& b : bands) {
    ZH_REQUIRE(b.rows() == first.rows() && b.cols() == first.cols() &&
                   b.transform() == first.transform(),
               "series bands must be co-registered");
  }

  // Plan once for the whole stack: geometry does not change per band.
  const ZonalPlan plan = plan_zonal(
      polygons, TilingScheme(first.rows(), first.cols(), config.tile_size),
      first.transform());
  result.times = plan.times;
  result.work = plan.work;
  const PolygonSoA soa = PolygonSoA::build(polygons);

  ZonalWorkspace local_ws;
  ZonalWorkspace& ws = workspace != nullptr ? *workspace : local_ws;

  result.per_band.reserve(bands.size());
  for (const DemRaster& band : bands) {
    ZonalResult r = execute_plan(device, plan, band, soa, config, ws);
    result.times += r.times;
    result.work += r.work;
    result.per_band.push_back(std::move(r.per_polygon));
  }
  return result;
}

}  // namespace zh
