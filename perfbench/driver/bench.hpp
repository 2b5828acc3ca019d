// Shared pieces of the repository benchmark driver (zh_perfbench):
// options, the metric table, order statistics, process resource probes
// and the independent scanline oracle.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/histogram.hpp"
#include "geom/polygon.hpp"
#include "grid/raster.hpp"

namespace zhb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< scratch files and the span file
};

/// What one workload run hands back to main(): the operation tally and
/// metric values by name. An operation whose output disagrees with its
/// oracle counts as failed, and any failure makes the run incorrect.
/// Names must appear in main.cpp's metric tables.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

/// Process CPU seconds (user + system, all threads) so far.
double cpu_seconds();
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Host-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests (steal). Zeros where
/// /proc/stat cannot be read.
struct HostCpu {
  double total = 0.0;
  double steal = 0.0;
};
HostCpu host_cpu();

/// q-quantile (0..1) by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// splitmix64 step: derives independent sub-seeds from the run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Independent reference: zonal_scanline run one polygon at a time, so
/// it executes on a single thread and shares no code with Steps 1-4.
/// `seconds` receives its wall time (the plain-serial reference).
zh::HistogramSet serial_scanline(const zh::DemRaster& raster,
                                 const zh::PolygonSet& zones,
                                 zh::BinIndex bins, double* seconds);

/// Raster cells of the run: rows x cols summed.
std::int64_t total_cells(const std::vector<zh::DemRaster>& rasters);

/// "a b c" with three decimals, for the stderr log.
std::string join(const std::vector<double>& v);

/// One line on stderr, prefixed with the workload name.
void note(const Options& opt, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace zhb
