// Lazy decode of ZonalPipeline::run(BqCompressedRaster): Step 0 decodes
// only the tiles the plan reads, with results identical to decoding the
// whole raster first.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/pipeline.hpp"
#include "data/dem_synth.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

// gtest names each case by a hex dump of its parameter's bytes, so the
// struct must have no padding: uninitialised padding bytes made the test
// names change from one run to the next. Hence a 64-bit seed (the DEM
// generator's own seed type) and `holes` as an int (0 or 1).
struct LazyCase {
  std::uint64_t seed;
  std::int64_t tile;
  int zone_count;
  int holes;
};
static_assert(std::has_unique_object_representations_v<LazyCase>);

class LazySweep : public ::testing::TestWithParam<LazyCase> {};

INSTANTIATE_TEST_SUITE_P(Cases, LazySweep,
                         ::testing::Values(LazyCase{1, 10, 6, 0},
                                           LazyCase{2, 16, 10, 1},
                                           LazyCase{3, 7, 3, 1},
                                           LazyCase{4, 32, 1, 0}));

TEST_P(LazySweep, MatchesEagerCompressedRun) {
  const LazyCase c = GetParam();
  Device dev;
  const DemRaster raster = generate_dem(
      96, 112, GeoTransform(0.0, 9.6, 0.1, 0.1),
      {.seed = c.seed, .max_value = 199});
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, c.tile);
  const PolygonSet zones = test::random_polygon_set(
      static_cast<std::uint32_t>(c.seed * 7), GeoBox{0.5, 0.5, 10.7, 9.1},
      c.zone_count, c.holes != 0);

  const ZonalPipeline pipe(dev, {.tile_size = c.tile, .bins = 200});
  const ZonalResult lazy = pipe.run(compressed, zones);
  const ZonalResult eager = pipe.run(compressed.decode_all(), zones);

  EXPECT_EQ(lazy.per_polygon, eager.per_polygon);
  EXPECT_EQ(lazy.work.pairs_inside, eager.work.pairs_inside);
  EXPECT_EQ(lazy.work.pairs_intersect, eager.work.pairs_intersect);
  EXPECT_EQ(lazy.work.cells_total, eager.work.cells_total);
  EXPECT_EQ(lazy.work.tiles_total,
            static_cast<std::uint64_t>(compressed.tiling().tile_count()));
  EXPECT_LE(lazy.work.tiles_decoded, lazy.work.tiles_total);
  EXPECT_EQ(eager.work.tiles_decoded, 0u);
}

TEST(LazyPipeline, SkipsTilesOutsideEveryZone) {
  Device dev;
  // Zones confined to the western quarter: most tiles stay compressed.
  const DemRaster raster = generate_dem(
      80, 160, GeoTransform(0.0, 8.0, 0.1, 0.1), {.max_value = 99});
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, 8);
  const PolygonSet zones = test::random_polygon_set(
      5, GeoBox{0.3, 0.3, 3.7, 7.7}, 5, false);

  const ZonalPipeline pipe(dev, {.tile_size = 8, .bins = 100});
  const ZonalResult lazy = pipe.run(compressed, zones);
  EXPECT_GT(lazy.work.tiles_decoded, 0u);
  EXPECT_LT(lazy.work.tiles_decoded, lazy.work.tiles_total / 2)
      << "western zones should leave most of the raster compressed";
  // And still exact.
  EXPECT_EQ(lazy.per_polygon, pipe.run(raster, zones).per_polygon);
}

TEST(LazyPipeline, EmptyZoneLayerDecodesNothing) {
  Device dev;
  const DemRaster raster = test::random_raster(40, 40, 1, 9);
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, 8);
  const ZonalPipeline pipe(dev, {.tile_size = 8, .bins = 10});
  const ZonalResult r = pipe.run(compressed, PolygonSet{});
  EXPECT_EQ(r.work.tiles_decoded, 0u);
  EXPECT_EQ(r.per_polygon.groups(), 0u);
}

TEST(LazyPipeline, TileSizeMismatchThrows) {
  Device dev;
  const DemRaster raster = test::random_raster(40, 40, 1, 9);
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, 8);
  const ZonalPipeline pipe(dev, {.tile_size = 10, .bins = 10});
  EXPECT_THROW((void)pipe.run(compressed, PolygonSet{}), InvalidArgument);
}

}  // namespace
}  // namespace zh
