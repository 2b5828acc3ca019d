// aoi_query_batch: the query-serving shape (Raptor Zonal Statistics).
// The six Table-1 rasters at S=10 are registered with a fresh
// QueryEngine (default 256 MiB tile cache, 0.1-degree = 36-cell tiles,
// the config's default refine), then a seeded stream of area-of-interest
// queries runs through it as one cold batch -- what `zhist query --batch`
// does. Each query is 1-12 neighbouring counties inside one raster,
// drawn from a pool with Zipf popularity, so popular layers repeat
// while the pool's tile working set exceeds the cache budget.
//
// A round is four such cold batches, each with its own pool and stream
// drawn from the run seed. A query's latency depends mostly on where its
// counties lie, and Zipf popularity lets a few layers of a pool carry
// much of a batch; four independent pools per round average that out,
// where one pool of 600 queries moved p95 by 10-15% from seed to seed.
//
// A round runs its batches twice, each time cold on a fresh engine, and
// a query's latency is the lesser of its two runs. On a shared virtual
// host, other guests stall the fork-join regions of a query in bursts,
// which widen the p95 tail from run to run; a burst rarely hits the same
// query in both passes.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/timer.hpp"
#include "core/query_engine.hpp"
#include "inputs.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace zhb {

namespace {

constexpr std::size_t kBatchesPerRound = 4;
constexpr std::size_t kPoolLayers = 128;
constexpr std::size_t kBatchQueries = 100;
constexpr int kPasses = 2;

zh::QueryEngineConfig cli_config() {
  // zhist query defaults: 0.1-degree tiles, 256 MiB cache budget; the
  // refine strategy is left at QueryEngineConfig's default.
  zh::QueryEngineConfig cfg;
  cfg.tile_size = 360 / kConusScale;
  cfg.cache.budget_bytes = std::size_t{256} << 20;
  return cfg;
}

// Totals of one round (both passes), from a traced round.
struct BatchLayers {
  double query_s = 0.0;
  double step_s[5] = {};
  zh::WorkCounters work;
  zh::TileCacheStats cache;  ///< deltas summed over the batches
};

struct Engine {
  std::unique_ptr<zh::QueryEngine> engine;
  std::vector<zh::RasterHandle> handles;
};

// Set-up of one batch: a fresh engine with every raster registered
// (fingerprinted). Returns the wall time in `seconds`.
Engine register_rasters(zh::Device& device, const ConusInputs& conus,
                        SpanTrace* tr, double& seconds) {
  Engine e;
  const Span s = timed(tr, "core.tile_cache.register", -1, [&] {
    e.engine = std::make_unique<zh::QueryEngine>(device, cli_config());
    for (const zh::DemRaster& r : conus.rasters) {
      e.handles.push_back(e.engine->add_raster(r));
    }
  });
  seconds = s.seconds();
  return e;
}

}  // namespace

Outcome run_aoi_query_batch(const Options& opt) {
  Outcome out;
  zh::Timer gen_timer;
  const ConusInputs conus = make_conus();
  const zh::PolygonSet counties = make_counties(opt.seed);
  // One pool and stream per batch of a round, each from its own sub-seed.
  struct Batch {
    std::vector<AoiLayer> pool;
    std::vector<std::size_t> stream;
    std::vector<std::optional<zh::HistogramSet>> oracle;
  };
  std::vector<Batch> batches(kBatchesPerRound);
  std::size_t pool_zones = 0;
  for (std::size_t b = 0; b < kBatchesPerRound; ++b) {
    const std::uint64_t sub = mix_seed(opt.seed, 8 + b);
    batches[b].pool = make_aoi_pool(conus, counties, kPoolLayers, sub);
    batches[b].stream =
        make_query_stream(batches[b].pool.size(), kBatchQueries, sub);
    for (const AoiLayer& l : batches[b].pool) pool_zones += l.zones.size();
  }
  note(opt, "inputs: %lld raster cells, %zu batches per round of %zu "
       "queries over %zu pool layers each (%zu zones in all) (%.1f s)",
       static_cast<long long>(total_cells(conus.rasters)), batches.size(),
       kBatchQueries, kPoolLayers, pool_zones, gen_timer.seconds());

  // Oracle for every distinct layer of every stream, computed before the
  // first batch so that no oracle work runs between timed queries.
  double oracle_s = 0.0;
  for (Batch& b : batches) {
    b.oracle.resize(b.pool.size());
    for (const std::size_t idx : b.stream) {
      if (b.oracle[idx]) continue;
      double s = 0.0;
      b.oracle[idx] = serial_scanline(conus.rasters[b.pool[idx].raster],
                                      b.pool[idx].zones, kBins, &s);
      oracle_s += s;
    }
  }
  note(opt, "oracle: serial scanline %.2f s over the distinct layers",
       oracle_s);

  SpanTrace trace;
  zh::Device device;
  std::vector<double> setup_s;
  std::vector<double> latency_s;  // untraced queries, lesser of 2 passes
  double answered_cells = 0.0;
  std::vector<double> round_s[2];  // untraced / traced round query time
  std::vector<BatchLayers> layers;
  zh::Timer run_timer;
  std::int64_t op = 0;
  // Traced runs alternate an untraced and a traced round, so the
  // tracing overhead is measured on identical batches.
  const int cycle = opt.trace ? 2 : 1;
  for (int round = 0; round < cycle || round % cycle != 0 ||
                      run_timer.seconds() < opt.seconds;
       ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    SpanTrace* tr = traced ? &trace : nullptr;
    BatchLayers totals;
    // Latency of every query of the round, per pass.
    std::vector<double> pass_s[kPasses];
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const Batch& b : batches) {
        double s = 0.0;
        Engine e = register_rasters(device, conus, tr, s);
        setup_s.push_back(s);

        double batch_s = 0.0;
        const zh::TileCacheStats before = e.engine->cache_stats();
        for (const std::size_t idx : b.stream) {
          const zh::ZonalQuery q{.raster = e.handles[b.pool[idx].raster],
                                 .zones = &b.pool[idx].zones,
                                 .bins = kBins};
          std::optional<zh::QueryResult> r;
          const Span span = timed(tr, "core.query_engine.query", op,
                                  [&] { r.emplace(e.engine->run(q)); });
          batch_s += span.seconds();
          if (traced) {
            for (std::size_t k = 0; k < 5; ++k) {
              totals.step_s[k] += r->times.seconds[k];
            }
            totals.work += r->work;
          } else {
            pass_s[pass].push_back(span.seconds());
            if (pass == 0) {
              answered_cells += static_cast<double>(r->work.cells_in_polygons);
            }
          }
          ++out.attempted;
          if (r->per_polygon != *b.oracle[idx]) {
            ++out.failed;
            note(opt, "query %lld (layer %zu) differs from the scanline "
                 "oracle", static_cast<long long>(op), idx);
          }
          ++op;
        }
        const zh::TileCacheStats after = e.engine->cache_stats();
        totals.cache.hits += after.hits - before.hits;
        totals.cache.misses += after.misses - before.misses;
        totals.cache.evictions += after.evictions - before.evictions;
        totals.query_s += batch_s;
        note(opt, "%s round %d pass %d batch: %.2f s, cache %llu hits / %llu "
             "misses / %llu evictions",
             traced ? "traced" : "untraced", round, pass, batch_s,
             static_cast<unsigned long long>(after.hits - before.hits),
             static_cast<unsigned long long>(after.misses - before.misses),
             static_cast<unsigned long long>(after.evictions -
                                             before.evictions));
      }
    }
    for (std::size_t i = 0; i < pass_s[0].size(); ++i) {
      latency_s.push_back(std::min(pass_s[0][i], pass_s[1][i]));
    }
    round_s[traced ? 1 : 0].push_back(totals.query_s);
    if (traced) layers.push_back(totals);
  }

  auto& m = out.metrics;
  if (!opt.trace) {
    double total = 0.0;
    for (const double s : latency_s) total += s;
    m["setup_s"] = median(setup_s);
    m["mcells_per_s"] = answered_cells / 1e6 / total;
    m["query_p50_ms"] = median(latency_s) * 1e3;
    m["query_p95_ms"] = quantile(latency_s, 0.95) * 1e3;
    m["queries_per_s"] = static_cast<double>(latency_s.size()) / total;
    m["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  // Per-layer figures are round totals; the median round is reported.
  auto med = [&](auto get) {
    std::vector<double> v;
    for (const BatchLayers& b : layers) v.push_back(get(b));
    return median(v);
  };
  using B = const BatchLayers&;
  const double bins = kBins;
  m["core.step1.s"] = med([](B b) { return b.step_s[1]; });
  m["core.step1.mcells_per_s"] =
      med([](B b) { return static_cast<double>(b.work.cells_total); }) /
      1e6 / m["core.step1.s"];
  m["core.step1.table_mbins"] = med([&](B b) {
    return static_cast<double>(b.cache.hits + b.cache.misses) * bins / 1e6;
  });
  m["core.step2.s"] = med([](B b) { return b.step_s[2]; });
  m["core.step2.candidate_pairs"] =
      med([](B b) { return static_cast<double>(b.work.candidate_pairs); });
  m["core.step2.pairs_inside"] =
      med([](B b) { return static_cast<double>(b.work.pairs_inside); });
  m["core.step2.pairs_intersect"] =
      med([](B b) { return static_cast<double>(b.work.pairs_intersect); });
  m["core.step3.s"] = med([](B b) { return b.step_s[3]; });
  m["core.step3.bin_adds"] =
      med([](B b) { return static_cast<double>(b.work.aggregate_bin_adds); });
  m["core.step4.s"] = med([](B b) { return b.step_s[4]; });
  m["core.step4.cell_tests"] =
      med([](B b) { return static_cast<double>(b.work.pip_cell_tests); });
  m["core.step4.edge_tests"] =
      med([](B b) { return static_cast<double>(b.work.pip_edge_tests); });
  m["core.step4.medge_tests_per_s"] =
      m["core.step4.edge_tests"] / 1e6 / m["core.step4.s"];
  m["core.step4.rows_scanned"] =
      med([](B b) { return static_cast<double>(b.work.pip_rows_scanned); });
  m["core.tile_cache.hits"] =
      med([](B b) { return static_cast<double>(b.cache.hits); });
  m["core.tile_cache.misses"] =
      med([](B b) { return static_cast<double>(b.cache.misses); });
  m["core.tile_cache.evictions"] =
      med([](B b) { return static_cast<double>(b.cache.evictions); });
  m["core.tile_cache.hit_ratio"] = med([](B b) {
    const double base = static_cast<double>(b.cache.hits + b.cache.misses);
    return base > 0.0 ? static_cast<double>(b.cache.hits) / base : 0.0;
  });
  m["core.tile_cache.fill_mcells"] =
      med([](B b) { return static_cast<double>(b.work.cells_total) / 1e6; });
  m["core.tile_cache.register_s"] = median(setup_s);
  m["core.query_engine.query_s"] = med([](B b) { return b.query_s; });
  m["oracle.serial_s"] = oracle_s;
  m["trace.overhead_pct"] =
      (median(round_s[1]) / median(round_s[0]) - 1.0) * 100.0;

  const std::string span_path = opt.work_dir + "/spans_aoi_query_batch.json";
  if (!trace.write_json(span_path)) {
    throw std::runtime_error("cannot write span file " + span_path);
  }
  note(opt, "wrote %s", span_path.c_str());
  return out;
}

}  // namespace zhb
