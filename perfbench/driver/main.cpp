// zh_perfbench: the repository benchmark driver.
//
//   zh_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--work-dir DIR]
//
// Generates the workload's inputs from the seed, runs it through the
// library's public entry points for about S seconds, checks every
// output against an independent scanline oracle, and prints one JSON
// object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// "correct" is false as soon as one operation failed its oracle.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics (and writes a span file).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of the table its mode selects.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"mcells_per_s", "Mcells/s"},
    {"query_p50_ms", "ms"},
    {"query_p95_ms", "ms"},
    {"queries_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"io.read_bq.s", "s"},
    {"io.read_bq.mb_per_s", "MiB/s"},
    {"bqtree.decode.s", "s"},
    {"bqtree.decode.mcells_per_s", "Mcells/s"},
    {"bqtree.decode.cores_busy", "cores"},
    {"bqtree.compressed_mb", "MiB"},
    {"bqtree.encode.s", "s"},
    {"core.step1.s", "s"},
    {"core.step1.mcells_per_s", "Mcells/s"},
    {"core.step1.table_mbins", "Mbins"},
    {"core.step1.cores_busy", "cores"},
    {"core.step2.s", "s"},
    {"core.step2.candidate_pairs", "count"},
    {"core.step2.pairs_inside", "count"},
    {"core.step2.pairs_intersect", "count"},
    {"core.step3.s", "s"},
    {"core.step3.bin_adds", "count"},
    {"core.step4.s", "s"},
    {"core.step4.cell_tests", "count"},
    {"core.step4.edge_tests", "count"},
    {"core.step4.medge_tests_per_s", "Medges/s"},
    {"core.step4.rows_scanned", "count"},
    {"core.tile_cache.hits", "count"},
    {"core.tile_cache.misses", "count"},
    {"core.tile_cache.evictions", "count"},
    {"core.tile_cache.hit_ratio", "ratio"},
    {"core.tile_cache.fill_mcells", "Mcells"},
    {"core.tile_cache.register_s", "s"},
    {"core.query_engine.query_s", "s"},
    {"cluster.comm_mb", "MiB"},
    {"cluster.rank_s_max", "s"},
    {"cluster.rank_imbalance", "ratio"},
    {"cluster.outside_steps_s", "s"},
    {"cluster.retries", "count"},
    {"cluster.partitions_reassigned", "count"},
    {"io.journal.append_s", "s"},
    {"io.journal.flush_s", "s"},
    {"io.journal.mb", "MiB"},
    {"io.journal.records", "count"},
    {"io.journal.manifest_s", "s"},
    {"oracle.serial_s", "s"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "zh_perfbench: %s\n"
               "usage: zh_perfbench --workload dem_bq_counties|"
               "aoi_query_batch|cluster_journaled --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               msg);
  std::exit(2);
}

zhb::Options parse(int argc, char** argv) {
  zhb::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

// Print the result line, or nothing if a metric is unknown, not finite,
// or (unless `absent_is_zero`) missing. Per-layer metrics a workload does
// not set read 0: that workload never enters the layer.
template <std::size_t N>
bool print_result(const zhb::Outcome& out, const MetricDef (&table)[N],
                  bool absent_is_zero) {
  for (const auto& [name, value] : out.metrics) {
    const bool known = std::any_of(std::begin(table), std::end(table),
                                   [&](const MetricDef& d) { return name == d.name; });
    if (!known || !std::isfinite(value)) {
      std::fprintf(stderr, "zh_perfbench: bad metric %s\n", name.c_str());
      return false;
    }
  }
  std::string metrics;
  for (const MetricDef& d : table) {
    const auto it = out.metrics.find(d.name);
    if (it == out.metrics.end() && !absent_is_zero) {
      std::fprintf(stderr, "zh_perfbench: metric %s missing\n", d.name);
      return false;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name,
                  it == out.metrics.end() ? 0.0 : it->second, d.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const zhb::Options opt = parse(argc, argv);
  try {
    std::filesystem::create_directories(opt.work_dir);
    const zhb::HostCpu cpu_before = zhb::host_cpu();
    zhb::Outcome out;
    if (opt.workload == "dem_bq_counties") {
      out = zhb::run_dem_bq_counties(opt);
    } else if (opt.workload == "aoi_query_batch") {
      out = zhb::run_aoi_query_batch(opt);
    } else if (opt.workload == "cluster_journaled") {
      out = zhb::run_cluster_journaled(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    // Time the hypervisor gave to other guests slows every figure of the
    // run; the share is logged so that a slow run can be told from a
    // slow program.
    const zhb::HostCpu cpu_after = zhb::host_cpu();
    const double ticks = cpu_after.total - cpu_before.total;
    if (ticks > 0.0) {
      zhb::note(opt, "host: %.1f%% of CPU time stolen by the hypervisor",
                100.0 * (cpu_after.steal - cpu_before.steal) / ticks);
    }
    if (out.attempted == 0) {
      std::fprintf(stderr, "zh_perfbench: no operation was attempted\n");
      return 1;
    }
    const bool ok = opt.trace ? print_result(out, kPerLayer, true)
                              : print_result(out, kEndToEnd, false);
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zh_perfbench: %s\n", e.what());
    return 1;
  }
}
