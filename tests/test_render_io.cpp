// Zone rasterization, PPM rendering and the .bq compressed container.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/crc32.hpp"
#include "core/baseline.hpp"
#include "core/pipeline.hpp"
#include "core/rasterize.hpp"
#include "data/dem_synth.hpp"
#include "geom/pip.hpp"
#include "io/ascii_grid.hpp"
#include "io/bq_file.hpp"
#include "io/render.hpp"
#include "io/zgrid.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

TEST(Rasterize, MatchesPerCellPip) {
  const GeoTransform t(0.0, 8.0, 0.1, 0.1);
  const PolygonSet zones = test::random_polygon_set(
      21, GeoBox{0.5, 0.5, 7.5, 7.5}, 6, /*holes=*/true);
  const Raster<PolygonId> ids = rasterize_zones(zones, 80, 80, t);

  for (std::int64_t r = 0; r < 80; ++r) {
    for (std::int64_t c = 0; c < 80; ++c) {
      const GeoPoint p = t.cell_center(r, c);
      // Expected: highest id whose polygon contains the center.
      PolygonId expect = kInvalidPolygon;
      for (PolygonId id = 0; id < zones.size(); ++id) {
        if (point_in_polygon(zones[id], p)) expect = id;
      }
      ASSERT_EQ(ids.at(r, c), expect) << "cell " << r << "," << c;
    }
  }
}

TEST(Rasterize, EmptyInputs) {
  const Raster<PolygonId> a =
      rasterize_zones(PolygonSet{}, 10, 10, GeoTransform());
  for (const PolygonId v : a.cells()) EXPECT_EQ(v, kInvalidPolygon);
  const Raster<PolygonId> b =
      rasterize_zones(PolygonSet{}, 0, 0, GeoTransform());
  EXPECT_EQ(b.cell_count(), 0);
}

TEST(Render, ElevationImageShapeAndDecimation) {
  const DemRaster dem = generate_dem(300, 500, GeoTransform(0, 3, 0.01,
                                                            0.01));
  const RgbImage img = render_elevation(dem, 100);
  EXPECT_LE(img.width, 100);
  EXPECT_LE(img.height, 100);
  EXPECT_EQ(img.pixels.size(),
            static_cast<std::size_t>(img.width * img.height * 3));
  // Full-size when it fits.
  const RgbImage full = render_elevation(dem, 1000);
  EXPECT_EQ(full.width, 500);
  EXPECT_EQ(full.height, 300);
}

TEST(Render, NodataRendersAsWater) {
  DemRaster dem(4, 4);
  for (CellValue& v : dem.cells()) v = 100;
  dem.at(0, 0) = 9999;
  dem.set_nodata(CellValue{9999});
  const RgbImage img = render_elevation(dem, 10);
  EXPECT_EQ(img.pixels[0], 40);   // water blue r
  EXPECT_EQ(img.pixels[2], 150);  // water blue b
}

TEST(Render, ZoneColorsAreDeterministicAndDistinct) {
  Raster<PolygonId> zones(2, 2, GeoTransform(), kInvalidPolygon);
  zones.at(0, 0) = 1;
  zones.at(0, 1) = 1;
  zones.at(1, 0) = 2;
  const RgbImage a = render_zone_ids(zones);
  const RgbImage b = render_zone_ids(zones);
  EXPECT_EQ(a.pixels, b.pixels);
  // Same zone same color; different zones different colors here.
  EXPECT_EQ(a.pixels[0], a.pixels[3]);
  EXPECT_NE(std::vector<std::uint8_t>(a.pixels.begin(), a.pixels.begin() + 3),
            std::vector<std::uint8_t>(a.pixels.begin() + 6,
                                      a.pixels.begin() + 9));
  // kInvalidPolygon cell renders dark.
  EXPECT_LT(a.pixels[9 + 0], 64);
}

TEST(Render, ChoroplethRampOrdering) {
  Raster<PolygonId> zones(1, 3, GeoTransform(), kInvalidPolygon);
  zones.at(0, 0) = 0;
  zones.at(0, 1) = 1;
  zones.at(0, 2) = 2;
  const RgbImage img = render_choropleth(zones, {0.0, 0.5, 1.0});
  // Red channel increases with the value, blue decreases.
  EXPECT_LT(img.pixels[0], img.pixels[3]);
  EXPECT_LT(img.pixels[3], img.pixels[6]);
  EXPECT_GT(img.pixels[2], img.pixels[8]);
}

class BqFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_bq_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(BqFileTest, RoundTripPreservesEverything) {
  const DemRaster dem = generate_dem(
      130, 170, GeoTransform(-101.5, 43.25, 0.01, 0.01), {.seed = 3});
  const BqCompressedRaster orig = BqCompressedRaster::encode(dem, 48);
  const std::string path = (dir_ / "terrain.bq").string();
  write_bq(path, orig);
  const BqCompressedRaster back = read_bq(path);

  EXPECT_EQ(back.tiling(), orig.tiling());
  EXPECT_EQ(back.transform(), orig.transform());
  EXPECT_EQ(back.compressed_bytes(), orig.compressed_bytes());
  const DemRaster decoded = back.decode_all();
  EXPECT_TRUE(std::equal(decoded.cells().begin(), decoded.cells().end(),
                         dem.cells().begin()));
}

TEST_F(BqFileTest, AsciiGridNodataSurvivesCompression) {
  // 40x40 .asc with NODATA_value 7 (every 7 in the data is nodata) and
  // one square zone: the raw run, the .bq run and the decode round trip
  // must agree, with no nodata cell counted.
  DemRaster dem = test::random_raster(40, 40, 11, 9,
                                      GeoTransform(0.0, 4.0, 0.1, 0.1));
  dem.set_nodata(CellValue{7});
  const std::string asc = (dir_ / "a.asc").string();
  write_ascii_grid(asc, dem);
  const DemRaster raster = read_ascii_grid(asc);
  ASSERT_EQ(raster.nodata(), std::optional<CellValue>{7});

  const std::string bq = (dir_ / "a.bq").string();
  write_bq(bq, BqCompressedRaster::encode(raster, 8));
  const BqCompressedRaster back = read_bq(bq);
  EXPECT_EQ(back.nodata(), raster.nodata());
  const std::string zgrid = (dir_ / "rt.zgrid").string();
  write_zgrid(zgrid, back.decode_all());
  EXPECT_EQ(read_zgrid(zgrid), raster);

  PolygonSet zones;
  zones.add(Polygon({{{0.3, 0.3}, {3.7, 0.3}, {3.7, 3.7}, {0.3, 3.7}}}));
  Device dev;
  const ZonalPipeline pipe(dev, {.tile_size = 8, .bins = 10});
  const ZonalResult raw = pipe.run(raster, zones);
  EXPECT_EQ(pipe.run(back, zones).per_polygon, raw.per_polygon);
  EXPECT_EQ(raw.per_polygon, zonal_naive(raster, zones, 10));
  EXPECT_EQ(raw.per_polygon.of(0)[7], 0u);
}

TEST_F(BqFileTest, Version2FileLoadsWithoutNodata) {
  // A version-2 file is a version-3 file without the three nodata bytes
  // at the end of the header blob (header CRC recomputed).
  const DemRaster dem = test::random_raster(20, 14, 9, 255);
  const std::string v3 = (dir_ / "v3.bq").string();
  write_bq(v3, BqCompressedRaster::encode(dem, 8));
  std::ifstream is(v3, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  constexpr std::size_t kBlob = 8;  // after magic + version
  constexpr std::size_t kV2Header = 3 * 8 + 4 * 8 + 8;
  ASSERT_GT(bytes.size(), kBlob + kV2Header + 3 + 4);
  bytes[4] = 2;
  bytes.erase(bytes.begin() + kBlob + kV2Header,
              bytes.begin() + kBlob + kV2Header + 3);
  const std::uint32_t crc = crc32(bytes.data() + kBlob, kV2Header);
  std::memcpy(bytes.data() + kBlob + kV2Header, &crc, sizeof(crc));
  const std::string v2 = (dir_ / "v2.bq").string();
  std::ofstream(v2, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  const BqCompressedRaster back = read_bq(v2);
  EXPECT_FALSE(back.nodata().has_value());
  EXPECT_EQ(back.decode_all(), dem);
}

TEST_F(BqFileTest, PpmRoundTripHeader) {
  RgbImage img(3, 2);
  img.set(2, 1, 9, 8, 7);
  const std::string path = (dir_ / "img.ppm").string();
  write_ppm(path, img);
  std::ifstream is(path, std::ios::binary);
  std::string magic;
  int w = 0;
  int h = 0;
  int maxv = 0;
  is >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 3);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(maxv, 255);
  is.get();  // single whitespace after header
  std::vector<char> data(6 * 3);
  is.read(data.data(), static_cast<std::streamsize>(data.size()));
  EXPECT_TRUE(is.good());
  EXPECT_EQ(static_cast<std::uint8_t>(data[15]), 9);
}

TEST_F(BqFileTest, CorruptFilesThrow) {
  EXPECT_THROW(read_bq((dir_ / "missing.bq").string()), IoError);
  {
    std::ofstream os((dir_ / "bad.bq").string(), std::ios::binary);
    os << "NOPE";
  }
  EXPECT_THROW(read_bq((dir_ / "bad.bq").string()), IoError);

  // Truncate a valid file mid-payload.
  const DemRaster dem = generate_dem(64, 64, GeoTransform(0, 1, 0.01,
                                                          0.01));
  const std::string path = (dir_ / "trunc.bq").string();
  write_bq(path, BqCompressedRaster::encode(dem, 32));
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - 10);
  EXPECT_THROW(read_bq(path), IoError);
}

}  // namespace
}  // namespace zh
