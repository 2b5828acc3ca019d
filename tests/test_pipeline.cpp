// End-to-end pipeline properties (DESIGN.md invariants 1-2): the 4-step
// GPU pipeline computes *exactly* the per-cell-PIP result across tile
// sizes, bin counts, polygon shapes and compression, and conserves cell
// counts on space-filling zone layers.
#include <gtest/gtest.h>

#include "core/baseline.hpp"
#include "core/pipeline.hpp"
#include "core/step1_tile_hist.hpp"
#include "core/step3_aggregate.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

struct Config {
  std::int64_t tile_size;
  BinIndex bins;
  std::uint32_t seed;
  bool holes;
};

class PipelineSweep : public ::testing::TestWithParam<Config> {};

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineSweep,
    ::testing::Values(Config{5, 100, 1, false}, Config{10, 100, 2, true},
                      Config{16, 50, 3, false}, Config{32, 200, 4, true},
                      Config{64, 100, 5, false},
                      Config{128, 100, 6, true},   // single-tile regime
                      Config{7, 100, 7, true}));   // non-dividing tile size

TEST_P(PipelineSweep, MatchesPerCellPipBaselineExactly) {
  const Config cfg = GetParam();
  Device dev;
  const DemRaster raster = test::random_raster(
      90, 110, cfg.seed, static_cast<CellValue>(cfg.bins - 1),
      GeoTransform(0.0, 9.0, 0.1, 0.1));
  const PolygonSet polys = test::random_polygon_set(
      cfg.seed * 31, GeoBox{0.5, 0.5, 10.5, 8.5}, 10, cfg.holes);

  const ZonalPipeline pipe(dev, {.tile_size = cfg.tile_size,
                                 .bins = cfg.bins});
  const ZonalResult result = pipe.run(raster, polys);
  const HistogramSet expect = zonal_mbb_filter(raster, polys, cfg.bins);
  EXPECT_EQ(result.per_polygon, expect);
}

TEST_P(PipelineSweep, CompressedInputGivesIdenticalResult) {
  const Config cfg = GetParam();
  Device dev;
  const DemRaster raster = generate_dem(
      90, 110, GeoTransform(0.0, 9.0, 0.1, 0.1),
      {.seed = cfg.seed, .max_value =
           static_cast<CellValue>(cfg.bins - 1)});
  const PolygonSet polys = test::random_polygon_set(
      cfg.seed * 77, GeoBox{0.5, 0.5, 10.5, 8.5}, 6, cfg.holes);

  const ZonalPipeline pipe(dev, {.tile_size = cfg.tile_size,
                                 .bins = cfg.bins});
  const ZonalResult raw = pipe.run(raster, polys);
  const BqCompressedRaster compressed =
      BqCompressedRaster::encode(raster, cfg.tile_size);
  const ZonalResult fromc = pipe.run(compressed, polys);
  EXPECT_EQ(raw.per_polygon, fromc.per_polygon);
  EXPECT_GT(fromc.work.compressed_bytes, 0u);
  EXPECT_EQ(fromc.work.raw_bytes,
            static_cast<std::uint64_t>(raster.cell_count()) * 2);
}

TEST(Pipeline, ConservationOnSpaceFillingZones) {
  // Synthetic counties tessellate the extent; every interior cell center
  // belongs to <= 1 zone and nearly all to exactly 1 (snapping slivers
  // aside), so the summed histogram mass must be within a whisker of the
  // raster size -- and never above it by more than the sliver allowance.
  Device dev;
  const GeoTransform t(0.0, 12.0, 0.05, 0.05);  // 240x320 cells
  const DemRaster raster =
      generate_dem(240, 320, t, {.seed = 3, .max_value = 99});
  CountyParams cp;
  cp.grid_x = 6;
  cp.grid_y = 4;
  // Zone extent overhangs the raster so every raster cell is interior to
  // the tessellation (and no zone vertex can hit the (0,0) SoA sentinel).
  const PolygonSet zones =
      generate_counties(GeoBox{-0.5, -0.5, 16.5, 12.5}, cp);

  const ZonalPipeline pipe(dev, {.tile_size = 20, .bins = 100});
  const ZonalResult r = pipe.run(raster, zones);

  const auto cells = static_cast<BinCount64>(raster.cell_count());
  EXPECT_GE(r.per_polygon.total(), cells * 999 / 1000);
  EXPECT_LE(r.per_polygon.total(), cells + cells / 1000);
  // And the result is still exactly the PIP reference.
  EXPECT_EQ(r.per_polygon, zonal_mbb_filter(raster, zones, 100));
}

TEST(Pipeline, WorkCountersAreConsistent) {
  Device dev;
  const DemRaster raster = test::random_raster(
      100, 100, 9, 49, GeoTransform(0.0, 10.0, 0.1, 0.1));
  const PolygonSet polys = test::random_polygon_set(
      5, GeoBox{1.0, 1.0, 9.0, 9.0}, 8, false);
  const ZonalPipeline pipe(dev, {.tile_size = 10, .bins = 50});
  const ZonalResult r = pipe.run(raster, polys);

  EXPECT_EQ(r.work.cells_total, 10'000u);
  EXPECT_EQ(r.work.tiles_total, 100u);
  EXPECT_EQ(r.work.polygon_vertices, polys.vertex_count());
  EXPECT_GE(r.work.candidate_pairs,
            r.work.pairs_inside + r.work.pairs_intersect);
  EXPECT_EQ(r.work.aggregate_bin_adds, r.work.pairs_inside * 50);
  // Each intersect pair contributes tile_cells cell tests (10x10 tiles).
  EXPECT_EQ(r.work.pip_cell_tests, r.work.pairs_intersect * 100);
  EXPECT_GT(r.work.pip_edge_tests, 0u);
  EXPECT_EQ(r.work.cells_in_polygons, r.per_polygon.total());
}

TEST(Pipeline, StepTimesArePopulated) {
  Device dev;
  const DemRaster raster = test::random_raster(
      60, 60, 2, 19, GeoTransform(0.0, 6.0, 0.1, 0.1));
  const PolygonSet polys =
      test::random_polygon_set(8, GeoBox{1, 1, 5, 5}, 4, false);
  const ZonalPipeline pipe(dev, {.tile_size = 10, .bins = 20});

  const ZonalResult raw = pipe.run(raster, polys);
  EXPECT_EQ(raw.times.seconds[0], 0.0);  // no decompression step
  for (std::size_t s = 1; s < StepTimes::kSteps; ++s) {
    EXPECT_GE(raw.times.seconds[s], 0.0);
  }
  EXPECT_GT(raw.times.step_total(), 0.0);

  const BqCompressedRaster comp = BqCompressedRaster::encode(raster, 10);
  const ZonalResult fromc = pipe.run(comp, polys);
  EXPECT_GT(fromc.times.seconds[0], 0.0);
}

TEST(Pipeline, EmptyPolygonSet) {
  Device dev;
  const DemRaster raster = test::random_raster(30, 30, 1, 9);
  const ZonalPipeline pipe(dev, {.tile_size = 10, .bins = 10});
  const ZonalResult r = pipe.run(raster, PolygonSet{});
  EXPECT_EQ(r.per_polygon.groups(), 0u);
  EXPECT_EQ(r.work.candidate_pairs, 0u);
}

TEST(Pipeline, MismatchedCompressedTilingThrows) {
  Device dev;
  const DemRaster raster = test::random_raster(30, 30, 1, 9);
  const BqCompressedRaster comp = BqCompressedRaster::encode(raster, 15);
  const ZonalPipeline pipe(dev, {.tile_size = 10, .bins = 10});
  EXPECT_THROW(pipe.run(comp, PolygonSet{}), InvalidArgument);
}

TEST(Pipeline, MismatchedSoaThrows) {
  Device dev;
  const DemRaster raster = test::random_raster(30, 30, 1, 9);
  PolygonSet polys;
  polys.add(Polygon({{{1, 1}, {2, 1}, {2, 2}}}));
  const PolygonSoA empty_soa = PolygonSoA::build(PolygonSet{});
  const ZonalPipeline pipe(dev, {.tile_size = 10, .bins = 10});
  EXPECT_THROW(pipe.run(raster, polys, empty_soa), InvalidArgument);
}

TEST(Pipeline, RejectsBadConfig) {
  Device dev;
  EXPECT_THROW(ZonalPipeline(dev, {.tile_size = 0, .bins = 10}),
               InvalidArgument);
  EXPECT_THROW(ZonalPipeline(dev, {.tile_size = 10, .bins = 0}),
               InvalidArgument);
}

TEST(Pipeline, PrivatizedCountModeGivesSameResult) {
  // The pipeline's inside-tiles-only Step 1 against the paper's
  // all-tiles composition with the privatized Step-1 kernel.
  Device dev;
  DemRaster raster = test::random_raster(
      50, 50, 13, 29, GeoTransform(0.0, 5.0, 0.1, 0.1));
  raster.set_nodata(CellValue{7});
  const PolygonSet polys =
      test::random_polygon_set(6, GeoBox{0.5, 0.5, 4.5, 4.5}, 5, true);
  const TilingScheme tiling(50, 50, 10);
  const HistogramSet tile_hist = tile_histograms(
      dev, raster, tiling, 30, CountMode::kPrivatized);
  const PairingResult pairing =
      pair_and_group(polys, tiling, raster.transform());
  HistogramSet expect(polys.size(), 30);
  aggregate_inside_tiles(dev, pairing.inside, tile_hist, expect);
  (void)refine_boundary_tiles(dev, pairing.intersect,
                              PolygonSoA::build(polys), raster, tiling,
                              expect);

  const ZonalPipeline pipe(dev, {.tile_size = 10, .bins = 30});
  EXPECT_EQ(pipe.run(raster, polys).per_polygon, expect);
}

}  // namespace
}  // namespace zh
