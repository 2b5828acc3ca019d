#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/histogram.hpp"

namespace zh {
namespace {

TEST(HistogramSet, ShapeAndAccess) {
  HistogramSet h(3, 10);
  EXPECT_EQ(h.groups(), 3u);
  EXPECT_EQ(h.bins(), 10u);
  EXPECT_EQ(h.flat().size(), 30u);
  h.of(1)[4] = 7;
  EXPECT_EQ(h.flat()[14], 7u);
  EXPECT_EQ(h.group_total(1), 7u);
  EXPECT_EQ(h.group_total(0), 0u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_THROW((void)h.of(3), InvalidArgument);
}

TEST(HistogramSet, AddAccumulatesElementwise) {
  HistogramSet a(2, 4);
  HistogramSet b(2, 4);
  a.of(0)[1] = 3;
  b.of(0)[1] = 4;
  b.of(1)[2] = 5;
  a.add(b);
  EXPECT_EQ(a.of(0)[1], 7u);
  EXPECT_EQ(a.of(1)[2], 5u);
  HistogramSet c(2, 5);
  EXPECT_THROW(a.add(c), InvalidArgument);
}

TEST(HistogramSet, EqualityAndZeroInit) {
  HistogramSet a(2, 3);
  HistogramSet b(2, 3);
  EXPECT_EQ(a, b);
  for (const BinCount v : a.flat()) EXPECT_EQ(v, 0u);
  a.of(0)[0] = 1;
  EXPECT_NE(a, b);
}

TEST(HistogramSet, RejectsZeroBins) {
  EXPECT_THROW(HistogramSet(1, 0), InvalidArgument);
}

TEST(ZonalStats, BasicMoments) {
  HistogramSet h(1, 10);
  // Values: 2 x3, 5 x1 -> count 4, mean (6+5)/4 = 2.75.
  h.of(0)[2] = 3;
  h.of(0)[5] = 1;
  const ZonalStats s = stats_from_histogram(h.of(0));
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.min, 2u);
  EXPECT_EQ(s.max, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 2.75);
  // Population variance: (3*(2-2.75)^2 + (5-2.75)^2)/4 = 1.6875.
  EXPECT_NEAR(s.stddev * s.stddev, 1.6875, 1e-12);
}

TEST(ZonalStats, EmptyHistogram) {
  HistogramSet h(1, 5);
  const ZonalStats s = stats_from_histogram(h.of(0));
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(ZonalStats, SingleBin) {
  HistogramSet h(1, 5);
  h.of(0)[3] = 100;
  const ZonalStats s = stats_from_histogram(h.of(0));
  EXPECT_EQ(s.min, 3u);
  EXPECT_EQ(s.max, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(HistogramDistance, L1) {
  HistogramSet a(1, 4);
  HistogramSet b(1, 4);
  a.of(0)[0] = 5;
  a.of(0)[2] = 1;
  b.of(0)[0] = 2;
  b.of(0)[3] = 7;
  EXPECT_EQ(histogram_l1_distance(a.of(0), b.of(0)), 3u + 1u + 7u);
  EXPECT_EQ(histogram_l1_distance(a.of(0), a.of(0)), 0u);
  HistogramSet c(1, 5);
  EXPECT_THROW((void)histogram_l1_distance(a.of(0), c.of(0)), InvalidArgument);
}

/// Encode `bins`, decode the result against bins.size() slots and
/// scatter it back into a dense table.
std::vector<BinCount> sparse_round_trip(const std::vector<BinCount>& bins) {
  std::vector<std::byte> blob;
  append_sparse_bins(bins, blob);
  std::vector<SparseBin> entries;
  const Status s = decode_sparse_bins(blob, bins.size(), entries);
  EXPECT_TRUE(s.is_ok()) << s.message();
  std::vector<BinCount> dense(bins.size(), 0);
  for (const SparseBin& e : entries) dense[e.index] += e.count;
  return dense;
}

TEST(SparseBins, RoundTripAllZeroEmptyAndDense) {
  const HistogramSet zero(4, 16);
  std::vector<std::byte> blob;
  append_sparse_bins(zero.flat(), blob);
  EXPECT_EQ(blob.size(), kSparseHeaderBytes);  // nnz = 0, no entries
  EXPECT_EQ(sparse_round_trip({zero.flat().begin(), zero.flat().end()}),
            std::vector<BinCount>(64, 0));

  const HistogramSet empty(0, 16);  // a zone layer without polygons
  ASSERT_TRUE(empty.flat().empty());
  blob.clear();
  append_sparse_bins(empty.flat(), blob);
  EXPECT_EQ(blob.size(), kSparseHeaderBytes);
  std::vector<SparseBin> entries = {{1, 1}};
  EXPECT_TRUE(decode_sparse_bins(blob, 0, entries).is_ok());
  EXPECT_TRUE(entries.empty());

  std::vector<BinCount> dense(3 * 7);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    dense[i] = static_cast<BinCount>(i + 1);
  }
  blob.clear();
  append_sparse_bins(dense, blob);
  EXPECT_EQ(blob.size(), kSparseHeaderBytes + dense.size() * kSparseEntryBytes);
  EXPECT_EQ(sparse_round_trip(dense), dense);
}

TEST(SparseBins, EncodingIsByteExact) {
  // The journal's on-disk records use this encoding, so its bytes are
  // pinned: u64 nnz, then (u64 index, u32 count) per nonzero slot.
  const std::vector<BinCount> bins = {0, 5, 0, 0, 0x01020304u};
  std::vector<std::byte> blob = {std::byte{0xAB}};  // appends, keeps prefix
  append_sparse_bins(bins, blob);
  const std::vector<unsigned char> expect = {
      0xAB,                                             // prefix
      2, 0, 0, 0, 0, 0, 0, 0,                           // nnz
      1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0,               // slot 1
      4, 0, 0, 0, 0, 0, 0, 0, 0x04, 0x03, 0x02, 0x01};  // slot 4
  ASSERT_EQ(blob.size(), expect.size());
  EXPECT_EQ(std::memcmp(blob.data(), expect.data(), expect.size()), 0);
}

TEST(SparseBins, DecodeRejectsMalformedPayloads) {
  const std::vector<BinCount> bins = {0, 3, 0, 7};
  std::vector<std::byte> good;
  append_sparse_bins(bins, good);
  std::vector<SparseBin> out;
  ASSERT_TRUE(decode_sparse_bins(good, bins.size(), out).is_ok());
  EXPECT_EQ(out, (std::vector<SparseBin>{{1, 3}, {3, 7}}));

  const auto rejects = [&](std::span<const std::byte> blob,
                           std::uint64_t slots) {
    const Status s = decode_sparse_bins(blob, slots, out);
    EXPECT_EQ(s.code(), StatusCode::kCorrupt);
    return !s.is_ok();
  };
  // Short payload: not even a whole nnz header.
  EXPECT_TRUE(rejects(std::span(good).first(kSparseHeaderBytes - 1), 4));
  EXPECT_TRUE(rejects({}, 4));
  // nnz disagrees with the length: one entry cut off, one byte extra.
  EXPECT_TRUE(rejects(std::span(good).first(good.size() - kSparseEntryBytes),
                      4));
  std::vector<std::byte> longer = good;
  longer.push_back(std::byte{0});
  EXPECT_TRUE(rejects(longer, 4));
  // nnz larger than the table.
  std::vector<std::byte> huge = good;
  const std::uint64_t nnz = 5;
  std::memcpy(huge.data(), &nnz, sizeof(nnz));
  EXPECT_TRUE(rejects(huge, 4));
  // An index past groups x bins (slot 3 of a 3-slot table).
  EXPECT_TRUE(rejects(good, 3));
}

}  // namespace
}  // namespace zh
