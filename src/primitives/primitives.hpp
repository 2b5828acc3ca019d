// Thrust-analog parallel primitives.
//
// Sec. III.C of the paper builds the Step-3 post-processing out of the
// Thrust primitives stable_sort_by_key, stable_partition, reduce_by_key and
// scan (Fig. 4). This header provides the same contracts executed on the
// host ThreadPool, so the pipeline code reads like the paper's primitive
// composition. All primitives match their sequential std:: counterparts
// exactly (tested property); parallelism only changes wall time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "device/thread_pool.hpp"

namespace zh::prim {

/// Fill `out` with 0, 1, 2, ... (thrust::sequence).
template <typename T>
void sequence(std::span<T> out, T start = T{0}) {
  ThreadPool::global().parallel_for(
      out.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          out[i] = start + static_cast<T>(i);
      },
      1 << 12);
}

/// Parallel transform: out[i] = fn(in[i]) (thrust::transform).
template <typename In, typename Out, typename Fn>
void transform(std::span<const In> in, std::span<Out> out, Fn fn) {
  ZH_REQUIRE(in.size() == out.size(), "transform size mismatch");
  ThreadPool::global().parallel_for(
      in.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) out[i] = fn(in[i]);
      },
      1 << 12);
}

/// Parallel reduction with a commutative/associative op (thrust::reduce).
template <typename T, typename Op = std::plus<T>>
T reduce(std::span<const T> in, T init = T{}, Op op = Op{}) {
  const std::size_t n = in.size();
  if (n == 0) return init;
  auto& pool = ThreadPool::global();
  const std::size_t chunks =
      std::min<std::size_t>(std::max<std::size_t>(1, pool.size() * 4),
                            (n + ((1 << 14) - 1)) >> 14);
  if (chunks <= 1) {
    T acc = init;
    for (const T& v : in) acc = op(acc, v);
    return acc;
  }
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<T> partial(chunks, T{});
  pool.parallel_for(
      chunks,
      [&](std::size_t cb, std::size_t ce) {
        for (std::size_t c = cb; c < ce; ++c) {
          const std::size_t lo = c * chunk;
          const std::size_t hi = std::min(n, lo + chunk);
          T acc = in[lo];
          for (std::size_t i = lo + 1; i < hi; ++i) acc = op(acc, in[i]);
          partial[c] = acc;
        }
      });
  T acc = init;
  for (const T& v : partial) acc = op(acc, v);
  return acc;
}

/// Exclusive prefix sum (thrust::exclusive_scan). Two-pass parallel:
/// per-chunk totals, sequential scan of totals, per-chunk rescan.
template <typename T>
void exclusive_scan(std::span<const T> in, std::span<T> out, T init = T{}) {
  ZH_REQUIRE(in.size() == out.size(), "scan size mismatch");
  const std::size_t n = in.size();
  if (n == 0) return;
  auto& pool = ThreadPool::global();
  const std::size_t chunks =
      std::min<std::size_t>(std::max<std::size_t>(1, pool.size() * 4),
                            (n + ((1 << 14) - 1)) >> 14);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<T> sums(chunks, T{});
  pool.parallel_for(chunks, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      T acc = T{};
      for (std::size_t i = lo; i < hi; ++i) acc += in[i];
      sums[c] = acc;
    }
  });
  std::vector<T> offsets(chunks);
  T running = init;
  for (std::size_t c = 0; c < chunks; ++c) {
    offsets[c] = running;
    running += sums[c];
  }
  pool.parallel_for(chunks, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      T acc = offsets[c];
      for (std::size_t i = lo; i < hi; ++i) {
        const T v = in[i];  // read before write: in may alias out
        out[i] = acc;
        acc += v;
      }
    }
  });
}

/// Inclusive prefix sum (thrust::inclusive_scan).
template <typename T>
void inclusive_scan(std::span<const T> in, std::span<T> out) {
  ZH_REQUIRE(in.size() == out.size(), "scan size mismatch");
  if (in.empty()) return;
  // inclusive[i] = exclusive[i] + in[i]; do it chunk-wise in one pass.
  std::vector<T> tmp(in.begin(), in.end());
  exclusive_scan<T>(std::span<const T>(tmp), out, T{});
  ThreadPool::global().parallel_for(
      in.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) out[i] += tmp[i];
      },
      1 << 12);
}

/// out[i] = src[indices[i]] (thrust::gather).
template <typename T, typename Index>
void gather(std::span<const Index> indices, std::span<const T> src,
            std::span<T> out) {
  ZH_REQUIRE(indices.size() == out.size(), "gather size mismatch");
  ThreadPool::global().parallel_for(
      indices.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          out[i] = src[static_cast<std::size_t>(indices[i])];
      },
      1 << 12);
}

/// out[indices[i]] = src[i] (thrust::scatter). Indices must be unique.
template <typename T, typename Index>
void scatter(std::span<const T> src, std::span<const Index> indices,
             std::span<T> out) {
  ZH_REQUIRE(indices.size() == src.size(), "scatter size mismatch");
  ThreadPool::global().parallel_for(
      indices.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
          out[static_cast<std::size_t>(indices[i])] = src[i];
      },
      1 << 12);
}

/// Stable counting of elements satisfying `pred` then compaction
/// (thrust::copy_if). Returns the compacted vector.
template <typename T, typename Pred>
std::vector<T> copy_if(std::span<const T> in, Pred pred) {
  // Two-pass: per-chunk counts -> offsets -> parallel writes.
  const std::size_t n = in.size();
  auto& pool = ThreadPool::global();
  const std::size_t chunks =
      std::min<std::size_t>(std::max<std::size_t>(1, pool.size() * 4),
                            std::max<std::size_t>(1, n >> 14));
  const std::size_t chunk = chunks ? (n + chunks - 1) / chunks : 0;
  if (n == 0) return {};
  std::vector<std::size_t> counts(chunks, 0);
  pool.parallel_for(chunks, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      std::size_t cnt = 0;
      for (std::size_t i = lo; i < hi; ++i)
        if (pred(in[i])) ++cnt;
      counts[c] = cnt;
    }
  });
  std::vector<std::size_t> offsets(chunks);
  std::size_t total = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    offsets[c] = total;
    total += counts[c];
  }
  std::vector<T> out(total);
  pool.parallel_for(chunks, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      std::size_t w = offsets[c];
      for (std::size_t i = lo; i < hi; ++i)
        if (pred(in[i])) out[w++] = in[i];
    }
  });
  return out;
}

/// Permutation that stable-sorts `keys` under `comp` (argsort). The
/// building block for multi-array stable_sort_by_key: sort the permutation
/// once, then gather every value array through it.
template <typename K, typename Comp = std::less<K>>
std::vector<std::size_t> stable_sort_permutation(std::span<const K> keys,
                                                 Comp comp = Comp{}) {
  const std::size_t n = keys.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  auto& pool = ThreadPool::global();

  // Parallel merge sort: stable-sort equal chunks, then pairwise
  // inplace_merge rounds. Index comparison breaks ties by position, which
  // is exactly the stability requirement.
  auto index_comp = [&](std::size_t a, std::size_t b) {
    if (comp(keys[a], keys[b])) return true;
    if (comp(keys[b], keys[a])) return false;
    return a < b;
  };
  const std::size_t workers = std::max<std::size_t>(1, pool.size());
  std::size_t chunk = std::max<std::size_t>(1 << 13, (n + workers - 1) / workers);
  if (chunk >= n) {
    std::stable_sort(perm.begin(), perm.end(), index_comp);
    return perm;
  }
  const std::size_t nchunks = (n + chunk - 1) / chunk;
  pool.parallel_for(nchunks, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      auto lo = perm.begin() + static_cast<std::ptrdiff_t>(c * chunk);
      auto hi = perm.begin() +
                static_cast<std::ptrdiff_t>(std::min(n, (c + 1) * chunk));
      std::stable_sort(lo, hi, index_comp);
    }
  });
  for (std::size_t width = chunk; width < n; width *= 2) {
    const std::size_t pairs = (n + 2 * width - 1) / (2 * width);
    pool.parallel_for(pairs, [&](std::size_t pb, std::size_t pe) {
      for (std::size_t p = pb; p < pe; ++p) {
        const std::size_t lo = p * 2 * width;
        const std::size_t mid = std::min(n, lo + width);
        const std::size_t hi = std::min(n, lo + 2 * width);
        if (mid < hi) {
          std::inplace_merge(
              perm.begin() + static_cast<std::ptrdiff_t>(lo),
              perm.begin() + static_cast<std::ptrdiff_t>(mid),
              perm.begin() + static_cast<std::ptrdiff_t>(hi), index_comp);
        }
      }
    });
  }
  return perm;
}

/// Reorder `v` so that v'[i] = v[perm[i]] (gather through a permutation).
template <typename T>
void apply_permutation(std::span<const std::size_t> perm, std::vector<T>& v) {
  ZH_REQUIRE(perm.size() == v.size(), "permutation size mismatch");
  std::vector<T> tmp(v.size());
  // zh-lint-ignore(discarded-status): primitives::gather is the void thrust analog; the rule matches any call named gather
  gather<T, std::size_t>(perm, std::span<const T>(v), std::span<T>(tmp));
  v = std::move(tmp);
}

/// thrust::stable_sort_by_key over one key and one value array.
template <typename K, typename V, typename Comp = std::less<K>>
void stable_sort_by_key(std::vector<K>& keys, std::vector<V>& values,
                        Comp comp = Comp{}) {
  ZH_REQUIRE(keys.size() == values.size(), "sort_by_key size mismatch");
  auto perm =
      stable_sort_permutation<K, Comp>(std::span<const K>(keys), comp);
  apply_permutation<K>(perm, keys);
  apply_permutation<V>(perm, values);
}

/// stable_sort_by_key with two value arrays (the Step-2 output sorts the
/// tile-id and polygon-id arrays by (relation, polygon) jointly).
template <typename K, typename V1, typename V2,
          typename Comp = std::less<K>>
void stable_sort_by_key(std::vector<K>& keys, std::vector<V1>& values1,
                        std::vector<V2>& values2, Comp comp = Comp{}) {
  ZH_REQUIRE(keys.size() == values1.size() && keys.size() == values2.size(),
             "sort_by_key size mismatch");
  auto perm =
      stable_sort_permutation<K, Comp>(std::span<const K>(keys), comp);
  apply_permutation<K>(perm, keys);
  apply_permutation<V1>(perm, values1);
  apply_permutation<V2>(perm, values2);
}

/// thrust::stable_partition over parallel arrays: move elements whose key
/// satisfies `pred` to the front, preserving relative order on both sides.
/// Returns the number of elements in the true partition.
template <typename K, typename V, typename Pred>
std::size_t stable_partition_by_key(std::vector<K>& keys,
                                    std::vector<V>& values, Pred pred) {
  ZH_REQUIRE(keys.size() == values.size(), "partition size mismatch");
  const std::size_t n = keys.size();
  std::vector<K> k2;
  std::vector<V> v2;
  k2.reserve(n);
  v2.reserve(n);
  std::size_t true_count = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (pred(keys[i])) {
      k2.push_back(keys[i]);
      v2.push_back(values[i]);
      ++true_count;
    }
  for (std::size_t i = 0; i < n; ++i)
    if (!pred(keys[i])) {
      k2.push_back(keys[i]);
      v2.push_back(values[i]);
    }
  keys = std::move(k2);
  values = std::move(v2);
  return true_count;
}

/// thrust::reduce_by_key: collapse runs of equal consecutive keys, summing
/// their values. Returns (unique_keys, reduced_values).
template <typename K, typename V>
std::pair<std::vector<K>, std::vector<V>> reduce_by_key(
    std::span<const K> keys, std::span<const V> values) {
  ZH_REQUIRE(keys.size() == values.size(), "reduce_by_key size mismatch");
  std::vector<K> out_keys;
  std::vector<V> out_vals;
  const std::size_t n = keys.size();
  std::size_t i = 0;
  while (i < n) {
    const K k = keys[i];
    V acc = values[i];
    std::size_t j = i + 1;
    while (j < n && keys[j] == k) {
      acc += values[j];
      ++j;
    }
    out_keys.push_back(k);
    out_vals.push_back(acc);
    i = j;
  }
  return {std::move(out_keys), std::move(out_vals)};
}

/// Run-length segment starts: offsets[r] = first index of run r in `keys`
/// (which must be grouped, e.g. after stable_sort_by_key). Used to derive
/// the pos_v array of Fig. 4 from the sorted pair list.
template <typename K>
std::vector<std::size_t> run_starts(std::span<const K> keys) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || !(keys[i] == keys[i - 1])) starts.push_back(i);
  }
  return starts;
}

}  // namespace zh::prim
