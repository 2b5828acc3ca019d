// dem_bq_counties: the paper's geometry. A 4 x 4 degree 1-arc-second DEM
// window (207.4 M cells) BQ-compressed into 360-cell tiles and written
// to a .bq file once (set-up); each job reads it back, decodes it and
// histograms the 3,136-county layer into 5000 bins with the CLI's auto
// refine -- what `zhist hist dem.bq counties.tsv` does.
#include <algorithm>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "common/timer.hpp"
#include "core/pipeline.hpp"
#include "core/step3_aggregate.hpp"
#include "inputs.hpp"
#include "io/bq_file.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace zhb {

namespace {

constexpr int kSetupReps = 5;
constexpr std::size_t kMinJobs = 3;
constexpr double kMiB = 1024.0 * 1024.0;

zh::ZonalConfig cli_config() {
  // zhist hist defaults: 360-cell tiles, 5000 bins, --refine auto.
  return {.tile_size = kPaperTile,
          .bins = kBins,
          .refine_strategy = zh::RefineStrategy::kAuto};
}

// Per-layer figures of one traced job.
struct LayerSample {
  Span read, decode, step1, step2, step3, step4, job;
  zh::PairingResult pairing;
  zh::RefineCounters refine;
  std::uint64_t tiles = 0;
};

// The job composed from the library's step functions, one span per
// layer call. Mirrors ZonalPipeline::run (BqCompressedRaster overload),
// so its histograms must be bit-identical to the pipeline's.
zh::HistogramSet traced_job(SpanTrace& trace, zh::Device& device,
                            const std::string& bq_path,
                            const zh::PolygonSet& zones, std::int64_t op,
                            LayerSample& sample, zh::DemRaster& decoded) {
  Scoped job(trace, "job", op);
  std::optional<zh::BqCompressedRaster> bq;
  sample.read = timed(&trace, "io.read_bq", op,
                      [&] { bq.emplace(zh::read_bq(bq_path)); });
  sample.decode = timed(&trace, "bqtree.decode", op,
                        [&] { decoded = bq->decode_all(); });
  const zh::TilingScheme tiling(decoded.rows(), decoded.cols(), kPaperTile);
  sample.tiles = tiling.tile_count();
  const zh::PolygonSoA soa = [&] {
    Scoped s(trace, "geom.soa_build", op);
    return zh::PolygonSoA::build(zones);
  }();
  zh::HistogramSet tile_hist;
  sample.step1 = timed(&trace, "core.step1", op, [&] {
    zh::tile_histograms_into(device, decoded, tiling, kBins,
                             zh::CountMode::kAtomic, tile_hist,
                             zh::CellOrder::kRowMajor);
  });
  sample.step2 = timed(&trace, "core.step2", op, [&] {
    sample.pairing = zh::pair_and_group(zones, tiling, decoded.transform());
  });
  zh::HistogramSet hist(zones.size(), kBins);
  sample.step3 = timed(&trace, "core.step3", op, [&] {
    zh::aggregate_inside_tiles(device, sample.pairing.inside, tile_hist,
                               hist);
  });
  sample.step4 = timed(&trace, "core.step4", op, [&] {
    sample.refine = zh::refine_boundary_tiles(
        device, sample.pairing.intersect, soa, decoded, tiling, hist,
        zh::RefineGranularity::kPolygonGroup, zh::RefineStrategy::kAuto);
  });
  sample.job = job.finish();
  return hist;
}

bool same_raster(const zh::DemRaster& a, const zh::DemRaster& b) {
  const auto ca = a.cells();
  const auto cb = b.cells();
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.nodata() == b.nodata() &&
         std::equal(ca.begin(), ca.end(), cb.begin(), cb.end());
}

template <typename Get>
double median_of(const std::vector<LayerSample>& samples, Get get) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const LayerSample& s : samples) v.push_back(get(s));
  return median(v);
}

}  // namespace

Outcome run_dem_bq_counties(const Options& opt) {
  Outcome out;
  zh::Timer gen_timer;
  const zh::DemRaster dem = make_dem_window();
  const zh::PolygonSet counties = make_counties(opt.seed);
  const double cells = static_cast<double>(dem.cell_count());
  note(opt, "inputs: %lldx%lld DEM, %zu zones, %zu vertices (%.1f s)",
       static_cast<long long>(dem.rows()), static_cast<long long>(dem.cols()),
       counties.size(), counties.vertex_count(), gen_timer.seconds());

  double oracle_s = 0.0;
  const zh::HistogramSet oracle =
      serial_scanline(dem, counties, kBins, &oracle_s);
  note(opt, "oracle: serial scanline %.2f s", oracle_s);

  SpanTrace trace;
  SpanTrace* tr = opt.trace ? &trace : nullptr;
  const std::string bq_path = opt.work_dir + "/dem.bq";

  // Set-up: encode + write, repeated; the median is setup_s.
  std::vector<double> setup_s;
  std::vector<double> encode_s;
  std::size_t compressed_bytes = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    std::optional<zh::BqCompressedRaster> bq;
    const Span enc = timed(tr, "bqtree.encode", -1, [&] {
      bq.emplace(zh::BqCompressedRaster::encode(dem, kPaperTile));
    });
    const Span wr =
        timed(tr, "io.write_bq", -1, [&] { zh::write_bq(bq_path, *bq); });
    encode_s.push_back(enc.seconds());
    setup_s.push_back(enc.seconds() + wr.seconds());
    compressed_bytes = bq->compressed_bytes();
  }
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(bq_path)) / kMiB;
  note(opt, "set-up: encode+write %s s (encode %s s), %.1f MiB file "
       "(ratio %.3f)",
       join(setup_s).c_str(), join(encode_s).c_str(), file_mb,
       static_cast<double>(compressed_bytes) / (cells * 2.0));

  zh::Device device;
  const zh::ZonalPipeline pipe(device, cli_config());
  std::vector<double> job_s;        // untraced jobs (zhist path)
  std::vector<LayerSample> layers;  // traced jobs (composed path)
  zh::Timer run_timer;
  std::int64_t op = 0;
  while (job_s.size() < kMinJobs || run_timer.seconds() < opt.seconds) {
    // The zhist path: load the .bq (read + decode), then the pipeline.
    zh::HistogramSet pipeline_hist;
    {
      zh::Timer t;
      const zh::DemRaster raster = zh::read_bq(bq_path).decode_all();
      zh::ZonalResult r = pipe.run(raster, counties);
      job_s.push_back(t.seconds());
      pipeline_hist = std::move(r.per_polygon);
    }
    ++out.attempted;
    if (pipeline_hist != oracle) {
      ++out.failed;
      note(opt, "job %lld: pipeline differs from the scanline oracle",
           static_cast<long long>(op));
    }
    ++op;
    if (!opt.trace) continue;

    // Traced variant: same job composed from the step functions.
    LayerSample sample;
    zh::DemRaster decoded;
    const zh::HistogramSet hist =
        traced_job(trace, device, bq_path, counties, op, sample, decoded);
    ++out.attempted;
    const bool round_trip = same_raster(decoded, dem);
    if (!round_trip || hist != pipeline_hist || hist != oracle) {
      ++out.failed;
      note(opt, "traced job %lld: round trip %s, composed %s pipeline",
           static_cast<long long>(op), round_trip ? "ok" : "BROKEN",
           hist == pipeline_hist ? "==" : "!=");
    }
    layers.push_back(std::move(sample));
    ++op;
  }
  note(opt, "%zu jobs: %s s", job_s.size(), join(job_s).c_str());
  std::filesystem::remove(bq_path);

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

  const auto med = [&](auto get) { return median_of(layers, get); };
  const LayerSample& any = layers.front();
  m["io.read_bq.s"] = med([](const LayerSample& s) { return s.read.seconds(); });
  m["io.read_bq.mb_per_s"] = file_mb / m["io.read_bq.s"];
  m["bqtree.decode.s"] =
      med([](const LayerSample& s) { return s.decode.seconds(); });
  m["bqtree.decode.mcells_per_s"] = cells / 1e6 / m["bqtree.decode.s"];
  m["bqtree.decode.cores_busy"] =
      med([](const LayerSample& s) { return s.decode.cores_busy(); });
  m["bqtree.compressed_mb"] = static_cast<double>(compressed_bytes) / kMiB;
  m["bqtree.encode.s"] = median(encode_s);
  m["core.step1.s"] = med([](const LayerSample& s) { return s.step1.seconds(); });
  m["core.step1.mcells_per_s"] = cells / 1e6 / m["core.step1.s"];
  m["core.step1.table_mbins"] =
      static_cast<double>(any.tiles) * kBins / 1e6;
  m["core.step1.cores_busy"] =
      med([](const LayerSample& s) { return s.step1.cores_busy(); });
  m["core.step2.s"] = med([](const LayerSample& s) { return s.step2.seconds(); });
  m["core.step2.candidate_pairs"] =
      static_cast<double>(any.pairing.candidate_pairs);
  m["core.step2.pairs_inside"] =
      static_cast<double>(any.pairing.inside.pair_count());
  m["core.step2.pairs_intersect"] =
      static_cast<double>(any.pairing.intersect.pair_count());
  m["core.step3.s"] = med([](const LayerSample& s) { return s.step3.seconds(); });
  m["core.step3.bin_adds"] =
      static_cast<double>(any.pairing.inside.pair_count()) * kBins;
  m["core.step4.s"] = med([](const LayerSample& s) { return s.step4.seconds(); });
  m["core.step4.cell_tests"] = static_cast<double>(any.refine.cell_tests);
  m["core.step4.edge_tests"] = static_cast<double>(any.refine.edge_tests);
  m["core.step4.medge_tests_per_s"] =
      m["core.step4.edge_tests"] / 1e6 / m["core.step4.s"];
  m["core.step4.rows_scanned"] = static_cast<double>(any.refine.rows_scanned);
  m["oracle.serial_s"] = oracle_s;
  const double traced = med([](const LayerSample& s) { return s.job.seconds(); });
  m["trace.overhead_pct"] = (traced / median(job_s) - 1.0) * 100.0;

  const std::string span_path = opt.work_dir + "/spans_dem_bq_counties.json";
  if (!trace.write_json(span_path)) {
    throw std::runtime_error("cannot write span file " + span_path);
  }
  note(opt, "wrote %s", span_path.c_str());
  return out;
}

}  // namespace zhb
