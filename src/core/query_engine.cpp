#include "core/query_engine.hpp"

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/executor.hpp"
#include "geom/soa.hpp"
#include "obs/obs.hpp"

namespace zh {

QueryEngine::QueryEngine(Device& device, QueryEngineConfig config)
    : device_(&device), config_(config), cache_(config.cache) {
  ZH_REQUIRE(config.tile_size >= 1, "tile size must be positive");
}

RasterHandle QueryEngine::add_raster(const DemRaster& raster) {
  ZH_TRACE_SPAN("query.add_raster", "query");
  rasters_.push_back(
      CatalogEntry{.raster = &raster, .fingerprint = fingerprint_raster(raster)});
  return rasters_.size() - 1;
}

QueryResult QueryEngine::run(const ZonalQuery& query) {
  ZH_REQUIRE(query.raster < rasters_.size(), "unknown raster handle ",
             query.raster, " (catalog has ", rasters_.size(), ")");
  ZH_REQUIRE(query.zones != nullptr, "query needs a zone layer");
  ZH_REQUIRE(query.bins >= 1, "bin count must be positive");
  ZH_TRACE_SPAN("query.run", "query");

  const CatalogEntry& entry = rasters_[query.raster];
  const DemRaster& raster = *entry.raster;
  const PolygonSet& zones = *query.zones;
  const ZonalConfig config{.tile_size = config_.tile_size, .bins = query.bins};
  const TileCacheStats before = cache_.stats();
  Timer total;

  // Step 2 first (zone-dependent, never cached): the plan names the
  // tiles this query demands histograms for, and Step 1 fills them
  // through the cache once per (raster, tile, binning) across every
  // query this engine has ever served.
  const ZonalPlan plan = plan_zonal(
      zones, TilingScheme(raster.rows(), raster.cols(), config_.tile_size),
      raster.transform());
  const CachedTiles cached{.cache = &cache_, .raster_fp = entry.fingerprint};
  ZonalWorkspace ws;
  ZonalResult r = execute_plan(*device_, plan, raster,
                               PolygonSoA::build(zones), config, ws, &cached);
  QueryResult result;
  result.per_polygon = std::move(r.per_polygon);
  result.times = plan.times;
  result.times += r.times;
  result.work = plan.work;
  result.work += r.work;

  // Per-query cache deltas. Exact when queries run one at a time (the
  // run_batch contract); under caller-driven concurrency they include
  // whatever overlapping queries did in the window.
  const TileCacheStats after = cache_.stats();
  result.cache_hits = after.hits - before.hits;
  result.cache_misses = after.misses - before.misses;
  ZH_LATENCY_RECORD("latency.query", total.seconds());
  return result;
}

std::vector<QueryResult> QueryEngine::run_batch(
    const std::vector<ZonalQuery>& queries) {
  ZH_TRACE_SPAN("query.run_batch", "query");
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (const ZonalQuery& q : queries) results.push_back(run(q));
  return results;
}

}  // namespace zh
