// Executor equivalence suite: every entry point that runs Steps 0-4
// through plan_zonal + execute_plan must reproduce zonal_naive exactly,
// under every Step-4 strategy, on inputs that stress the demanded-tile
// compaction: nodata cells, values >= bins, zones with holes, multi-part
// zones, zones partly (or wholly) outside the raster, and an empty layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "bqtree/compressed_raster.hpp"
#include "core/baseline.hpp"
#include "core/cluster_driver.hpp"
#include "core/executor.hpp"
#include "core/hybrid.hpp"
#include "core/multiband.hpp"
#include "core/pipeline.hpp"
#include "core/query_engine.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

constexpr BinIndex kBins = 40;
constexpr CellValue kNodata = 5;
constexpr RefineStrategy kStrategies[] = {
    RefineStrategy::kBrute, RefineStrategy::kScanline, RefineStrategy::kAuto};

// The struct has no padding, so the parameter dump gtest prints beside
// each test name is the same from run to run.
struct ExecCase {
  std::uint32_t seed;
  std::int32_t tile;
};
static_assert(std::has_unique_object_representations_v<ExecCase>);

/// 48x56 raster at 0.1-degree cells over x [0, 5.6], y [0, 4.8]; values
/// reach past the bin count and a strip of cells is nodata.
DemRaster make_raster(std::uint32_t seed) {
  DemRaster r = test::random_raster(48, 56, seed, kBins + 20,
                                    GeoTransform(0.0, 4.8, 0.1, 0.1));
  for (std::int64_t c = 10; c < 30; ++c) r.at(20, c) = kNodata;
  r.set_nodata(kNodata);
  return r;
}

PolygonSet make_zones(std::uint32_t seed) {
  // Star zones, every other one with a hole, some straddling the edge.
  PolygonSet zones = test::random_polygon_set(
      seed, GeoBox{0.2, 0.2, 6.2, 4.6}, 5, true);
  // A multi-part zone: two disjoint squares.
  zones.add(Polygon({{{0.3, 0.3}, {1.9, 0.3}, {1.9, 1.9}, {0.3, 1.9}},
                     {{3.3, 2.9}, {5.1, 2.9}, {5.1, 4.3}, {3.3, 4.3}}}));
  // Partly outside the raster (west and north edges).
  zones.add(Polygon({{{-1.0, 2.0}, {2.7, 2.0}, {2.7, 5.5}, {-1.0, 5.5}}}));
  // Wholly outside.
  zones.add(Polygon({{{7.0, 1.0}, {8.0, 1.0}, {8.0, 2.0}, {7.0, 2.0}}}));
  return zones;
}

std::vector<PolygonSet> layers(std::uint32_t seed) {
  std::vector<PolygonSet> out;
  out.push_back(make_zones(seed));
  out.emplace_back();  // the empty layer
  return out;
}

class ExecutorEquivalence : public ::testing::TestWithParam<ExecCase> {};

INSTANTIATE_TEST_SUITE_P(
    Cases, ExecutorEquivalence,
    ::testing::Values(ExecCase{1, 8}, ExecCase{2, 12}, ExecCase{3, 16},
                      ExecCase{4, 7}),
    [](const ::testing::TestParamInfo<ExecCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_tile" +
             std::to_string(info.param.tile);
    });

TEST_P(ExecutorEquivalence, PipelineRawCompressedAndPartitioned) {
  const ExecCase c = GetParam();
  Device dev;
  const DemRaster raster = make_raster(c.seed);
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, c.tile);
  for (const PolygonSet& zones : layers(c.seed)) {
    const HistogramSet expect = zonal_naive(raster, zones, kBins);
    for (const RefineStrategy s : kStrategies) {
      SCOPED_TRACE(static_cast<int>(s));
      const ZonalPipeline pipe(
          dev, {.tile_size = c.tile, .bins = kBins, .refine_strategy = s});
      const ZonalResult raw = pipe.run(raster, zones);
      EXPECT_EQ(raw.per_polygon, expect);
      EXPECT_EQ(raw.work.cells_total,
                static_cast<std::uint64_t>(raster.cell_count()));
      EXPECT_EQ(raw.work.tiles_decoded, 0u);

      const ZonalResult bq = pipe.run(compressed, zones);
      EXPECT_EQ(bq.per_polygon, expect);
      EXPECT_EQ(bq.work.cells_total, raw.work.cells_total);
      EXPECT_LE(bq.work.tiles_decoded, bq.work.tiles_total);
      if (zones.size() == 0) {
        EXPECT_EQ(bq.work.tiles_decoded, 0u);
      }

      EXPECT_EQ(pipe.run_partitioned(raster, zones, 2, 2).per_polygon,
                expect);
    }
  }
}

TEST_P(ExecutorEquivalence, SeriesEveryBand) {
  const ExecCase c = GetParam();
  Device dev;
  const std::vector<DemRaster> bands = {make_raster(c.seed),
                                        make_raster(c.seed + 100)};
  for (const PolygonSet& zones : layers(c.seed)) {
    for (const RefineStrategy s : kStrategies) {
      SCOPED_TRACE(static_cast<int>(s));
      const SeriesResult r = run_series(
          dev, bands, zones,
          {.tile_size = c.tile, .bins = kBins, .refine_strategy = s});
      ASSERT_EQ(r.per_band.size(), bands.size());
      for (std::size_t b = 0; b < bands.size(); ++b) {
        EXPECT_EQ(r.per_band[b], zonal_naive(bands[b], zones, kBins));
      }
    }
  }
}

TEST_P(ExecutorEquivalence, HybridAtEveryFraction) {
  const ExecCase c = GetParam();
  Device primary;
  Device secondary(DeviceProfile::host());
  const DemRaster raster = make_raster(c.seed);
  for (const PolygonSet& zones : layers(c.seed)) {
    const HistogramSet expect = zonal_naive(raster, zones, kBins);
    for (const RefineStrategy s : kStrategies) {
      for (const double fraction : {0.0, 0.5, 1.0}) {
        SCOPED_TRACE(static_cast<int>(s));
        SCOPED_TRACE(fraction);
        const HybridResult h = run_hybrid(
            primary, secondary, raster, zones,
            {.zonal = {.tile_size = c.tile,
                       .bins = kBins,
                       .refine_strategy = s},
             .primary_fraction = fraction});
        EXPECT_EQ(h.per_polygon, expect);
        EXPECT_EQ(h.work.cells_total,
                  static_cast<std::uint64_t>(raster.cell_count()));
      }
    }
  }
}

TEST_P(ExecutorEquivalence, QueryEngineColdAndWarm) {
  // QueryEngine runs ZonalConfig's default (auto) refine.
  const ExecCase c = GetParam();
  Device dev;
  const DemRaster raster = make_raster(c.seed);
  QueryEngineConfig cfg;
  cfg.tile_size = c.tile;
  QueryEngine engine(dev, cfg);
  const RasterHandle h = engine.add_raster(raster);
  for (const PolygonSet& zones : layers(c.seed)) {
    const HistogramSet expect = zonal_naive(raster, zones, kBins);
    const ZonalQuery q{.raster = h, .zones = &zones, .bins = kBins};
    const QueryResult cold = engine.run(q);
    const QueryResult warm = engine.run(q);
    EXPECT_EQ(cold.per_polygon, expect);
    EXPECT_EQ(warm.per_polygon, expect);
    EXPECT_EQ(warm.cache_misses, 0u);
    EXPECT_EQ(warm.work.cells_total, 0u);
  }
}

TEST_P(ExecutorEquivalence, ClusterStaticAndFaultTolerant) {
  const ExecCase c = GetParam();
  const std::vector<DemRaster> rasters = {make_raster(c.seed)};
  const std::vector<std::pair<int, int>> schemas = {{2, 2}};
  for (const PolygonSet& zones : layers(c.seed)) {
    const HistogramSet expect = zonal_naive(rasters[0], zones, kBins);
    for (const RefineStrategy s : kStrategies) {
      SCOPED_TRACE(static_cast<int>(s));
      ClusterRunConfig cfg;
      cfg.ranks = 2;
      cfg.zonal = {.tile_size = c.tile, .bins = kBins,
                   .refine_strategy = s};
      const ClusterRunResult r =
          run_cluster_zonal(rasters, schemas, zones, cfg);
      EXPECT_FALSE(r.degraded);
      EXPECT_EQ(r.merged, expect);
    }
  }
}

TEST(Executor, PlanCompactsInsideTilesAndMarksCellTiles) {
  // 40x40 raster, 8-cell tiles (5x5); one square zone covering cells
  // [3, 37) in both axes: the 3x3 middle tiles are inside, the ring of
  // 16 around them intersects.
  PolygonSet zones;
  zones.add(Polygon({{{0.3, 0.3}, {3.7, 0.3}, {3.7, 3.7}, {0.3, 3.7}}}));
  const ZonalPlan plan = plan_zonal(zones, TilingScheme(40, 40, 8),
                                    GeoTransform(0.0, 4.0, 0.1, 0.1));
  ASSERT_EQ(plan.hist_tiles.size(), 9u);
  for (std::size_t i = 0; i < plan.pairing.inside.tid_v.size(); ++i) {
    EXPECT_EQ(plan.pairing.inside.tid_v[i], i);  // slots, not tile ids
  }
  EXPECT_EQ(plan.cell_tiles.size(), 25u);
  EXPECT_TRUE(std::is_sorted(plan.cell_tiles.begin(), plan.cell_tiles.end()));
  EXPECT_EQ(plan.work.pairs_inside, 9u);
  EXPECT_EQ(plan.work.pairs_intersect, 16u);
  EXPECT_EQ(plan.work.tiles_total, 25u);
}

}  // namespace
}  // namespace zh
