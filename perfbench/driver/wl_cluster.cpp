// cluster_journaled: repeated 4-rank fault-tolerant cluster jobs over the
// six Table-1 rasters at S=10 (36 partitions by their Table-1 schemas),
// journaling every accepted partition with an fsync -- what
// `zhist hist --ranks 4 --checkpoint-dir DIR` does. No faults are
// injected. Partition compression stays off, as in zhist.
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>

#include "bench.hpp"
#include "common/timer.hpp"
#include "core/cluster_driver.hpp"
#include "inputs.hpp"
#include "io/journal.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace zhb {

namespace {

constexpr std::size_t kMinJobs = 3;
constexpr std::size_t kRanks = 4;
constexpr double kMiB = 1024.0 * 1024.0;

zh::ClusterRunConfig cli_config() {
  // zhist hist --ranks 4 --checkpoint-dir: fault-tolerant master-worker
  // mode, 0.1-degree tiles, 5000 bins, auto refine, no compression.
  zh::ClusterRunConfig cfg;
  cfg.ranks = kRanks;
  cfg.zonal = {.tile_size = 360 / kConusScale,
               .bins = kBins,
               .refine_strategy = zh::RefineStrategy::kAuto};
  cfg.fault_tolerance.enabled = true;
  return cfg;
}

// Forwards every accepted partition to the journal and times the append
// as a span under the job's cluster span. Called on the master rank's
// thread.
class TimingSink final : public zh::CheckpointSink {
 public:
  TimingSink(zh::JournalWriter& journal, SpanTrace& trace, int parent,
             std::int64_t op)
      : journal_(&journal), trace_(&trace), parent_(parent), op_(op) {}

  void on_partition_complete(std::uint32_t part_index,
                             std::span<const zh::BinCount> bins) override {
    Scoped s(*trace_, "io.journal.append", op_, parent_);
    journal_->on_partition_complete(part_index, bins);
    append_s_ += s.finish().seconds();
    ++calls_[part_index];
  }

  [[nodiscard]] double append_s() const { return append_s_; }
  /// Number of times each partition index was journaled.
  [[nodiscard]] const std::map<std::uint32_t, int>& calls() const {
    return calls_;
  }

 private:
  zh::JournalWriter* journal_;
  SpanTrace* trace_;
  int parent_;
  std::int64_t op_;
  double append_s_ = 0.0;
  std::map<std::uint32_t, int> calls_;
};

// Per-layer figures of one traced job.
struct LayerSample {
  double job_s = 0.0;
  double manifest_s = 0.0;
  double append_s = 0.0;
  double flush_s = 0.0;
  double journal_mb = 0.0;
  std::uint64_t records = 0;
  zh::ClusterRunResult result;
};

}  // namespace

Outcome run_cluster_journaled(const Options& opt) {
  Outcome out;
  zh::Timer gen_timer;
  const ConusInputs conus = make_conus();
  const zh::PolygonSet counties = make_counties(opt.seed);
  const double cells = static_cast<double>(total_cells(conus.rasters));
  const zh::ClusterRunConfig base_cfg = cli_config();
  note(opt, "inputs: %.0f raster cells, %zu zones (%.1f s)", cells,
       counties.size(), gen_timer.seconds());

  // Oracle: the sum over the six rasters of the serial scanline.
  double oracle_s = 0.0;
  zh::HistogramSet oracle(counties.size(), kBins);
  for (const zh::DemRaster& r : conus.rasters) {
    double s = 0.0;
    oracle.add(serial_scanline(r, counties, kBins, &s));
    oracle_s += s;
  }
  note(opt, "oracle: serial scanline %.2f s", oracle_s);

  const std::string journal_path = opt.work_dir + "/run.journal";
  std::uint32_t partitions = 0;
  for (const auto& [pr, pc] : conus.schemas) {
    partitions += static_cast<std::uint32_t>(pr * pc);
  }

  SpanTrace trace;
  std::vector<double> setup_s;
  std::vector<double> job_s;  // untraced jobs
  std::vector<LayerSample> layers;
  zh::Timer run_timer;
  std::int64_t op = 0;
  // Traced runs alternate an untraced and a traced job, so the tracing
  // overhead is measured within one process.
  const std::size_t cycle = opt.trace ? 2 : 1;
  for (std::size_t n = 0; n < kMinJobs * cycle || n % cycle != 0 ||
                          run_timer.seconds() < opt.seconds;
       ++n, ++op) {
    const bool traced = opt.trace && n % 2 == 1;
    SpanTrace* tr = traced ? &trace : nullptr;
    zh::ClusterRunConfig cfg = base_cfg;

    // Set-up: manifest (input fingerprints) + a fresh journal.
    std::optional<zh::RunManifest> manifest;
    const Span man = timed(tr, "io.journal.manifest", op, [&] {
      manifest = zh::make_manifest(conus.rasters, conus.schemas, counties,
                                   cfg);
    });
    std::optional<zh::JournalWriter> journal;
    const Span create = timed(tr, "io.journal.create", op, [&] {
      journal.emplace(zh::JournalWriter::create(journal_path, *manifest));
    });
    setup_s.push_back(man.seconds() + create.seconds());

    // The job: the cluster run plus the final journal flush.
    LayerSample sample;
    std::map<std::uint32_t, int> journaled;
    if (traced) {
      Scoped job(trace, "job", op);
      std::optional<TimingSink> sink;
      {
        Scoped run(trace, "cluster.run_zonal", op);
        sink.emplace(*journal, trace, run.id(), op);
        cfg.checkpoint.sink = &*sink;
        sample.result =
            zh::run_cluster_zonal(conus.rasters, conus.schemas, counties, cfg);
      }
      const Span flush =
          timed(tr, "io.journal.flush", op, [&] { journal->flush(); });
      sample.job_s = job.finish().seconds();
      sample.manifest_s = man.seconds();
      sample.append_s = sink->append_s();
      sample.flush_s = flush.seconds();
      journaled = sink->calls();
    } else {
      zh::Timer t;
      cfg.checkpoint.sink = &*journal;
      sample.result =
          zh::run_cluster_zonal(conus.rasters, conus.schemas, counties, cfg);
      journal->flush();
      job_s.push_back(t.seconds());
    }
    sample.records = journal->records_written();
    journal.reset();  // close the file
    sample.journal_mb =
        static_cast<double>(std::filesystem::file_size(journal_path)) / kMiB;

    // Checks, outside the timed region.
    const zh::ClusterRunResult& res = sample.result;
    std::uint32_t completed = 0;
    for (const zh::RankOutcome& o : res.rank_outcomes) {
      completed += o.partitions_completed;
    }
    const zh::JournalLoad load = zh::load_journal(journal_path);
    std::set<std::uint32_t> reloaded(load.completed.begin(),
                                     load.completed.end());
    const bool once =
        completed == partitions && load.records.size() == partitions &&
        reloaded.size() == partitions &&
        (!traced || (journaled.size() == partitions &&
                     std::all_of(journaled.begin(), journaled.end(),
                                 [](const auto& kv) { return kv.second == 1; })));
    const bool merged_ok = res.merged == oracle;
    const auto flat = res.merged.flat();
    const bool journal_ok =
        std::equal(load.merged_bins.begin(), load.merged_bins.end(),
                   flat.begin(), flat.end());
    ++out.attempted;
    if (res.degraded || !once || !merged_ok || !journal_ok) {
      ++out.failed;
      note(opt, "job %lld: degraded %d, each partition once %d, oracle %d, "
           "journal reload %d",
           static_cast<long long>(op), res.degraded ? 1 : 0, once ? 1 : 0,
           merged_ok ? 1 : 0, journal_ok ? 1 : 0);
    }
    if (traced) layers.push_back(std::move(sample));
  }
  std::filesystem::remove(journal_path);
  note(opt, "%zu untraced jobs: %s s; set-up %s s", job_s.size(),
       join(job_s).c_str(), join(setup_s).c_str());

  auto& m = out.metrics;
  if (!opt.trace) {
    double total = 0.0;
    for (const double s : job_s) total += s;
    m["setup_s"] = median(setup_s);
    m["mcells_per_s"] = cells / 1e6 / median(job_s);
    m["query_p50_ms"] = median(job_s) * 1e3;
    m["query_p95_ms"] = quantile(job_s, 0.95) * 1e3;
    m["queries_per_s"] = static_cast<double>(job_s.size()) / total;
    m["peak_rss_mb"] = peak_rss_mb();
    return out;
  }

  using L = const LayerSample&;
  auto med = [&](auto get) {
    std::vector<double> v;
    for (const LayerSample& s : layers) v.push_back(get(s));
    return median(v);
  };
  // Step times are summed over ranks (rank-seconds of work).
  auto step_sum = [](L s, std::size_t k) {
    double t = 0.0;
    for (const zh::StepTimes& r : s.result.per_rank) t += r.seconds[k];
    return t;
  };
  auto rank_max = [](L s) {
    double mx = 0.0;
    for (const zh::StepTimes& r : s.result.per_rank) {
      mx = std::max(mx, r.step_total());
    }
    return mx;
  };
  auto work = [](L s) -> const zh::WorkCounters& { return s.result.work; };
  m["core.step1.s"] = med([&](L s) { return step_sum(s, 1); });
  m["core.step1.mcells_per_s"] = cells / 1e6 / m["core.step1.s"];
  m["core.step1.table_mbins"] = med([&](L s) {
    return static_cast<double>(work(s).tiles_total) * kBins / 1e6;
  });
  m["core.step2.s"] = med([&](L s) { return step_sum(s, 2); });
  m["core.step2.candidate_pairs"] = med(
      [&](L s) { return static_cast<double>(work(s).candidate_pairs); });
  m["core.step2.pairs_inside"] =
      med([&](L s) { return static_cast<double>(work(s).pairs_inside); });
  m["core.step2.pairs_intersect"] =
      med([&](L s) { return static_cast<double>(work(s).pairs_intersect); });
  m["core.step3.s"] = med([&](L s) { return step_sum(s, 3); });
  m["core.step3.bin_adds"] = med(
      [&](L s) { return static_cast<double>(work(s).aggregate_bin_adds); });
  m["core.step4.s"] = med([&](L s) { return step_sum(s, 4); });
  m["core.step4.cell_tests"] =
      med([&](L s) { return static_cast<double>(work(s).pip_cell_tests); });
  m["core.step4.edge_tests"] =
      med([&](L s) { return static_cast<double>(work(s).pip_edge_tests); });
  m["core.step4.medge_tests_per_s"] =
      m["core.step4.edge_tests"] / 1e6 / m["core.step4.s"];
  m["core.step4.rows_scanned"] =
      med([&](L s) { return static_cast<double>(work(s).pip_rows_scanned); });
  m["cluster.comm_mb"] = med(
      [](L s) { return static_cast<double>(s.result.comm_bytes) / kMiB; });
  m["cluster.rank_s_max"] = med(rank_max);
  m["cluster.rank_imbalance"] = med([&](L s) {
    double sum = 0.0;
    for (const zh::StepTimes& r : s.result.per_rank) sum += r.step_total();
    const double mean = sum / static_cast<double>(s.result.per_rank.size());
    return mean > 0.0 ? rank_max(s) / mean : 0.0;
  });
  m["cluster.outside_steps_s"] =
      med([&](L s) { return s.job_s - rank_max(s); });
  m["cluster.retries"] = med([](L s) {
    double n = 0.0;
    for (const zh::RankMetricsRow& r : s.result.rank_metrics) {
      n += static_cast<double>(r.retries);
    }
    return n;
  });
  m["cluster.partitions_reassigned"] = med([](L s) {
    double n = 0.0;
    for (const zh::RankOutcome& o : s.result.rank_outcomes) {
      n += o.partitions_reassigned;
    }
    return n;
  });
  m["io.journal.append_s"] = med([](L s) { return s.append_s; });
  m["io.journal.flush_s"] = med([](L s) { return s.flush_s; });
  m["io.journal.mb"] = med([](L s) { return s.journal_mb; });
  m["io.journal.records"] =
      med([](L s) { return static_cast<double>(s.records); });
  m["io.journal.manifest_s"] = med([](L s) { return s.manifest_s; });
  m["oracle.serial_s"] = oracle_s;
  m["trace.overhead_pct"] =
      (med([](L s) { return s.job_s; }) / median(job_s) - 1.0) * 100.0;

  const std::string span_path =
      opt.work_dir + "/spans_cluster_journaled.json";
  if (!trace.write_json(span_path)) {
    throw std::runtime_error("cannot write span file " + span_path);
  }
  note(opt, "wrote %s", span_path.c_str());
  return out;
}

}  // namespace zhb
