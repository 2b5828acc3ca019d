#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "common/timer.hpp"
#include "core/baseline.hpp"

namespace zhb {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostCpu host_cpu() {
  HostCpu h;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return h;
  // First line: cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) h.total += static_cast<double>(x);
    h.steal = static_cast<double>(v[7]);
  }
  std::fclose(f);
  return h;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

zh::HistogramSet serial_scanline(const zh::DemRaster& raster,
                                 const zh::PolygonSet& zones,
                                 zh::BinIndex bins, double* seconds) {
  zh::Timer timer;
  zh::HistogramSet out(zones.size(), bins);
  for (zh::PolygonId z = 0; z < zones.size(); ++z) {
    zh::PolygonSet one;
    one.add(zones[z]);
    const zh::HistogramSet h = zh::zonal_scanline(raster, one, bins);
    const auto src = h.of(0);
    std::copy(src.begin(), src.end(), out.of(z).begin());
  }
  if (seconds != nullptr) *seconds = timer.seconds();
  return out;
}

std::int64_t total_cells(const std::vector<zh::DemRaster>& rasters) {
  std::int64_t n = 0;
  for (const zh::DemRaster& r : rasters) n += r.cell_count();
  return n;
}

std::string join(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double x : v) {
    std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : " ", x);
    out += buf;
  }
  return out;
}

void note(const Options& opt, const char* fmt, ...) {
  std::fprintf(stderr, "[%s] ", opt.workload.c_str());
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace zhb
