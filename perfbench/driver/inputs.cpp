#include "inputs.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "bench.hpp"
#include "data/conus.hpp"
#include "data/dem_synth.hpp"

namespace zhb {

zh::DemRaster make_dem_window() {
  constexpr std::int64_t kDeg = 4;
  const double cell = 1.0 / static_cast<double>(kDemCellsPerDeg);
  return zh::generate_dem(kDeg * kDemCellsPerDeg, kDeg * kDemCellsPerDeg,
                          zh::GeoTransform(-100.0, 44.0, cell, cell));
}

zh::PolygonSet make_counties(std::uint64_t seed) {
  return zh::conus::generate_county_layer(3109, mix_seed(seed, 2));
}

ConusInputs make_conus() {
  ConusInputs in;
  for (const zh::conus::RasterSpec& spec : zh::conus::table1()) {
    in.rasters.push_back(zh::conus::generate_raster(spec, kConusScale));
    in.schemas.emplace_back(spec.part_rows, spec.part_cols);
  }
  return in;
}

std::vector<AoiLayer> make_aoi_pool(const ConusInputs& conus,
                                    const zh::PolygonSet& counties,
                                    std::size_t count, std::uint64_t seed) {
  // Counties whose bounding box lies wholly inside one raster, grouped
  // by that raster, with their box centres for the neighbour search.
  struct Candidate {
    zh::PolygonId id;
    double cx, cy;
  };
  std::vector<std::vector<Candidate>> by_raster(conus.rasters.size());
  for (zh::PolygonId id = 0; id < counties.size(); ++id) {
    const zh::GeoBox box = counties[id].mbr();
    for (std::size_t r = 0; r < conus.rasters.size(); ++r) {
      if (conus.rasters[r].extent().contains(box)) {
        by_raster[r].push_back({id, 0.5 * (box.min_x + box.max_x),
                                0.5 * (box.min_y + box.max_y)});
        break;
      }
    }
  }
  // Flat (raster, index) draw space over every eligible county.
  std::vector<std::pair<std::size_t, std::size_t>> slots;
  for (std::size_t r = 0; r < by_raster.size(); ++r) {
    for (std::size_t i = 0; i < by_raster[r].size(); ++i) {
      slots.emplace_back(r, i);
    }
  }

  std::mt19937_64 rng(mix_seed(seed, 3));
  std::uniform_int_distribution<std::size_t> pick(0, slots.size() - 1);
  std::vector<AoiLayer> pool;
  pool.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    const auto [r, i] = slots[pick(rng)];
    const std::vector<Candidate>& cands = by_raster[r];
    const std::size_t k = std::min(cands.size(), 1 + p % kAoiSizes);
    // The k counties nearest the drawn one (itself first).
    std::vector<std::size_t> order(cands.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const Candidate& c0 = cands[i];
    auto dist2 = [&](std::size_t j) {
      const double dx = cands[j].cx - c0.cx;
      const double dy = cands[j].cy - c0.cy;
      return dx * dx + dy * dy;
    };
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(k),
                      order.end(), [&](std::size_t a, std::size_t b) {
                        const double da = dist2(a);
                        const double db = dist2(b);
                        return da != db ? da < db : a < b;
                      });
    AoiLayer layer;
    layer.raster = r;
    for (std::size_t j = 0; j < k; ++j) {
      const zh::PolygonId id = cands[order[j]].id;
      layer.zones.add(counties[id], counties.name(id));
    }
    pool.push_back(std::move(layer));
  }
  return pool;
}

std::vector<std::size_t> make_query_stream(std::size_t pool_size,
                                           std::size_t count,
                                           std::uint64_t seed) {
  // One Zipf(1) draw per size class over that class's layers, which are
  // pool indices c, c + kAoiSizes, c + 2 * kAoiSizes, ...
  std::vector<std::discrete_distribution<std::size_t>> draw;
  for (std::size_t c = 0; c < kAoiSizes; ++c) {
    std::vector<double> weights;
    for (std::size_t i = c; i < pool_size; i += kAoiSizes) {
      weights.push_back(1.0 / static_cast<double>(weights.size() + 1));
    }
    draw.emplace_back(weights.begin(), weights.end());
  }
  std::mt19937_64 rng(mix_seed(seed, 4));
  std::vector<std::size_t> stream(count);
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t c = j % kAoiSizes;
    stream[j] = c + kAoiSizes * draw[c](rng);
  }
  return stream;
}

}  // namespace zhb
