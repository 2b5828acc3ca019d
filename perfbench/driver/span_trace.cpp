#include "span_trace.hpp"

#include <algorithm>
#include <cstdio>

#include "bench.hpp"

namespace zhb {

namespace {
// Open spans of the calling thread, innermost last. One trace exists per
// process, so a single per-thread stack suffices.
thread_local std::vector<int> t_open;
}  // namespace

SpanTrace::SpanTrace() : t0_(Clock::now()) {}

double SpanTrace::now() const {
  return std::chrono::duration<double>(Clock::now() - t0_).count();
}

int SpanTrace::open(std::string name, std::int64_t op, int parent) {
  if (parent == kInnermost) parent = t_open.empty() ? -1 : t_open.back();
  const double cpu = cpu_seconds();
  const double start = now();
  int id = 0;
  {
    std::lock_guard lock(mutex_);
    id = static_cast<int>(spans_.size());
    Span s;
    s.id = id;
    s.parent = parent;
    s.op = op;
    s.name = std::move(name);
    s.start_s = start;
    spans_.push_back(std::move(s));
    cpu_at_open_.push_back(cpu);
  }
  t_open.push_back(id);
  return id;
}

Span SpanTrace::close(int id) {
  const double end = now();
  const double cpu = cpu_seconds();
  if (const auto it = std::find(t_open.rbegin(), t_open.rend(), id);
      it != t_open.rend()) {
    t_open.erase(std::next(it).base());
  }
  std::lock_guard lock(mutex_);
  Span& s = spans_.at(static_cast<std::size_t>(id));
  s.end_s = end;
  s.cpu_s = cpu - cpu_at_open_[static_cast<std::size_t>(id)];
  return s;
}

std::vector<Span> SpanTrace::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

bool SpanTrace::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %d, \"parent\": %d, \"op\": %lld, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"cpu_s\": %.6f}%s\n",
                 s.id, s.parent, static_cast<long long>(s.op),
                 s.name.c_str(), s.start_s, s.end_s, s.cpu_s,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace zhb
