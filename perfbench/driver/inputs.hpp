// Input generation for the benchmark workloads; none of it is timed.
//
// The rasters are the repository's fixed synthetic CONUS DEM (DemParams
// defaults), standing in for the paper's one SRTM dataset: with a seeded
// terrain the 4 x 4 degree window's BQ compression ratio, and with it
// the job time, moved by +-20% from seed to seed. The run seed draws
// everything on the vector side: the county layer, the AOI pool and the
// query stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/polygon.hpp"
#include "grid/raster.hpp"

namespace zhb {

/// Paper geometry: 1-arc-second cells, 0.1-degree (360-cell) tiles,
/// 5000 bins.
inline constexpr std::int64_t kDemCellsPerDeg = 3600;
inline constexpr std::int64_t kPaperTile = 360;
inline constexpr zh::BinIndex kBins = 5000;

/// The 4 x 4 degree window of the synthetic CONUS DEM at 1-arc-second
/// resolution (14,400 x 14,400 cells), west edge -100, north edge 44.
[[nodiscard]] zh::DemRaster make_dem_window();

/// The full CONUS county layer (3,136 zones for the 3,109 requested).
[[nodiscard]] zh::PolygonSet make_counties(std::uint64_t seed);

/// Scale divisor of the six Table-1 rasters used by the query and
/// cluster workloads: 360 cells per degree, 36-cell 0.1-degree tiles.
inline constexpr int kConusScale = 10;

struct ConusInputs {
  std::vector<zh::DemRaster> rasters;          ///< Table-1 rasters at S=10
  std::vector<std::pair<int, int>> schemas;    ///< Table-1 partition grids
};
[[nodiscard]] ConusInputs make_conus();

/// One area of interest: neighbouring counties inside one raster.
struct AoiLayer {
  std::size_t raster = 0;
  zh::PolygonSet zones;
};

/// AOI sizes run from 1 to kAoiSizes counties.
inline constexpr std::size_t kAoiSizes = 12;

/// A pool of `count` AOI layers drawn from `counties`. Layer i holds the
/// 1 + i % kAoiSizes counties nearest a randomly drawn one.
[[nodiscard]] std::vector<AoiLayer> make_aoi_pool(
    const ConusInputs& conus, const zh::PolygonSet& counties,
    std::size_t count, std::uint64_t seed);

/// `count` pool indices. Query j asks for an AOI of 1 + j % kAoiSizes
/// counties, drawn from the pool layers of that size with Zipf(1)
/// popularity (the r-th layer of the size has weight 1 / (r + 1)). The
/// size mix is thus the same for every seed: query latency grows about
/// linearly with AOI size, and with sizes drawn at random the median
/// latency moved by 10-25% from seed to seed.
[[nodiscard]] std::vector<std::size_t> make_query_stream(
    std::size_t pool_size, std::size_t count, std::uint64_t seed);

}  // namespace zhb
