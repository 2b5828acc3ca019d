// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into
// each library layer (io, bqtree, core steps, tile cache / query engine,
// cluster, journal). Each span carries a name, start, end, its parent
// span and the operation (job or query) it belongs to, plus the process
// CPU seconds consumed while it was open, from which `cores_busy` is
// derived. Spans stay in memory and are written out once, at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace zhb {

struct Span {
  int id = 0;
  int parent = -1;  ///< -1 = root
  std::int64_t op = -1;  ///< operation index (job/query), -1 = set-up
  std::string name;
  double start_s = 0.0;  ///< seconds since the trace was created
  double end_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU seconds while open

  [[nodiscard]] double seconds() const { return end_s - start_s; }
  /// CPU seconds per wall second: how many cores the span kept busy.
  [[nodiscard]] double cores_busy() const {
    const double s = seconds();
    return s > 0.0 ? cpu_s / s : 0.0;
  }
};

class SpanTrace {
 public:
  SpanTrace();

  /// Open a span. The parent is the innermost span this thread opened
  /// and has not closed, unless `parent` names one explicitly (spans
  /// opened from library callbacks on other threads).
  int open(std::string name, std::int64_t op, int parent = kInnermost);
  /// Close span `id`; returns a copy of the finished span.
  Span close(int id);

  [[nodiscard]] std::vector<Span> spans() const;

  /// Write every span as JSON to `path`; returns false if it cannot.
  bool write_json(const std::string& path) const;

  static constexpr int kInnermost = -2;

 private:
  using Clock = std::chrono::steady_clock;
  double now() const;

  Clock::time_point t0_;
  mutable std::mutex mutex_;  // guards spans_, cpu_at_open_
  std::vector<Span> spans_;
  std::vector<double> cpu_at_open_;
};

/// RAII helper: opens on construction, closes on finish() or scope exit.
class Scoped {
 public:
  Scoped(SpanTrace& trace, std::string name, std::int64_t op,
         int parent = SpanTrace::kInnermost)
      : trace_(&trace), id_(trace.open(std::move(name), op, parent)) {}
  ~Scoped() {
    if (id_ >= 0) trace_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  [[nodiscard]] int id() const { return id_; }
  Span finish() {
    const Span s = trace_->close(id_);
    id_ = -1;
    return s;
  }

 private:
  SpanTrace* trace_;
  int id_;
};

/// Run `fn` as span `name` of operation `op`. Without a trace (the
/// untraced run) only its wall time is measured and nothing is recorded.
template <typename Fn>
Span timed(SpanTrace* trace, std::string name, std::int64_t op, Fn&& fn) {
  if (trace != nullptr) {
    Scoped scope(*trace, std::move(name), op);
    fn();
    return scope.finish();
  }
  Span s;
  s.name = std::move(name);
  s.op = op;
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  s.end_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return s;
}

}  // namespace zhb
