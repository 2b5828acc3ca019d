#include "core/histogram.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/contracts.hpp"
#include "obs/obs.hpp"

namespace zh {

static_assert(std::endian::native == std::endian::little,
              "the sparse histogram encoding assumes a little-endian host");

void note_values_clamped(std::uint64_t n) {
  if (n == 0) return;
  ZH_COUNTER_ADD("histogram.values_clamped", n);
}

void append_sparse_bins(std::span<const BinCount> bins,
                        std::vector<std::byte>& out) {
  std::uint64_t nnz = 0;
  for (const BinCount c : bins) {
    if (c != 0) ++nnz;
  }
  std::size_t pos = out.size();
  out.resize(pos + kSparseHeaderBytes + nnz * kSparseEntryBytes);
  const auto put = [&](const auto& v) {
    std::memcpy(out.data() + pos, &v, sizeof(v));
    pos += sizeof(v);
  };
  put(nnz);
  for (std::uint64_t i = 0; i < bins.size(); ++i) {
    const BinCount c = bins[static_cast<std::size_t>(i)];
    if (c == 0) continue;
    put(i);
    put(c);
  }
}

Status decode_sparse_bins(std::span<const std::byte> blob,
                          std::uint64_t slots, std::vector<SparseBin>& out) {
  const auto corrupt = [](auto&&... parts) {
    return Status::error(StatusCode::kCorrupt,
                         detail::format_parts("sparse histogram: ", parts...));
  };
  if (blob.size() < kSparseHeaderBytes) {
    return corrupt(blob.size(), " bytes, shorter than its ",
                   kSparseHeaderBytes, "-byte header");
  }
  std::uint64_t nnz = 0;
  std::memcpy(&nnz, blob.data(), sizeof(nnz));
  if (nnz > slots) {
    return corrupt("nnz ", nnz, " exceeds ", slots, " histogram slots");
  }
  const std::size_t body = blob.size() - kSparseHeaderBytes;
  if (body % kSparseEntryBytes != 0 || body / kSparseEntryBytes != nnz) {
    return corrupt("length ", blob.size(), " disagrees with nnz ", nnz);
  }
  out.resize(static_cast<std::size_t>(nnz));
  const std::byte* p = blob.data() + kSparseHeaderBytes;
  for (SparseBin& e : out) {
    std::memcpy(&e.index, p, sizeof(e.index));
    std::memcpy(&e.count, p + sizeof(e.index), sizeof(e.count));
    p += kSparseEntryBytes;
    if (e.index >= slots) {
      return corrupt("bin index ", e.index, " out of range (", slots,
                     " slots)");
    }
  }
  return Status::ok();
}

ZonalStats stats_from_histogram(std::span<const BinCount> h) {
  ZonalStats s;
  double sum = 0.0;
  double sum_sq = 0.0;
  bool seen = false;
  for (BinIndex b = 0; b < h.size(); ++b) {
    ZH_DCHECK_BOUNDS(b, h.size());
    const BinCount c = h[b];
    if (c == 0) continue;
    if (!seen) {
      s.min = b;
      seen = true;
    }
    s.max = b;
    s.count += c;
    const double v = static_cast<double>(b);
    sum += v * c;
    sum_sq += v * v * c;
  }
  if (s.count > 0) {
    const double n = static_cast<double>(s.count);
    s.mean = sum / n;
    const double var = std::max(0.0, sum_sq / n - s.mean * s.mean);
    s.stddev = std::sqrt(var);
  }
  // Non-empty histograms must produce an ordered bin range; both indices
  // were read from h so they are < h.size() by construction.
  ZH_ASSERT(s.count == 0 || s.min <= s.max,
            "stats bin range inverted: min=", s.min, " max=", s.max);
  return s;
}

std::uint64_t histogram_l1_distance(std::span<const BinCount> a,
                                    std::span<const BinCount> b) {
  ZH_REQUIRE(a.size() == b.size(), "histogram length mismatch");
  std::uint64_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
  }
  return d;
}

}  // namespace zh
