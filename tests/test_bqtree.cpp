// BQ-Tree codec properties (DESIGN.md invariant 4): decode(encode(x)) == x
// for every raster, per-tile decode equals windowed full decode, and the
// compression behaviour the paper relies on (smooth DEM data compresses
// well; dropped all-zero bitplanes).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "bqtree/bitstream.hpp"
#include "bqtree/bqtree.hpp"
#include "bqtree/compressed_raster.hpp"
#include "common/crc32.hpp"
#include "data/dem_synth.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

TEST(BitStream, RoundTripBitsAndFields) {
  BitWriter w;
  w.put(true);
  w.put(false);
  w.put_bits(0b1011, 4);
  w.put_bits(0xDEADBEEF, 32);
  EXPECT_EQ(w.bit_count(), 38u);
  const auto bytes = w.take();

  BitReader r(bytes);
  EXPECT_TRUE(r.get());
  EXPECT_FALSE(r.get());
  EXPECT_EQ(r.get_bits(4), 0b1011u);
  EXPECT_EQ(r.get_bits(32), 0xDEADBEEFu);
  EXPECT_EQ(r.position(), 38u);
}

TEST(BitStream, ExhaustionThrows) {
  BitWriter w;
  w.put(true);
  const auto bytes = w.take();
  BitReader r(bytes);
  r.get_bits(8);  // padding bits within the byte are readable
  EXPECT_THROW(r.get(), InvalidArgument);
}

TEST(BitStream, RandomMixedWidthReadsMatchWriter) {
  // Widths 0-32 in random order straddle every refill boundary of the
  // 64-bit read buffer; get() is mixed in as a 1-bit read.
  std::mt19937 rng(17);
  std::vector<std::pair<std::uint32_t, unsigned>> fields;
  BitWriter w;
  for (int i = 0; i < 4000; ++i) {
    const unsigned width = rng() % 33;
    const std::uint32_t v =
        width == 0 ? 0u
                   : static_cast<std::uint32_t>(rng()) >> (32u - width);
    w.put_bits(v, width);
    fields.emplace_back(v, width);
  }
  const std::size_t bits = w.bit_count();
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), (bits + 7) / 8);

  BitReader r(bytes);
  std::size_t written = 0;
  for (const auto& [v, width] : fields) {
    if (width == 1 && written % 2 == 0) {
      ASSERT_EQ(r.get(), v != 0);
    } else {
      ASSERT_EQ(r.get_bits(width), v) << "field at bit " << written;
    }
    written += width;
    ASSERT_EQ(r.position(), written);
  }
  EXPECT_EQ(r.position(), bits);
  EXPECT_EQ(r.remaining(), bytes.size() * 8 - bits);
}

TEST(BitStream, ReaderNeverReadsPastItsSpan) {
  // The reader sees only a prefix of a larger buffer; bits beyond the
  // prefix exist in memory but must never be served.
  const std::vector<std::uint8_t> backing(32, 0xFF);
  for (std::size_t len = 0; len <= 17; ++len) {
    BitReader r(std::span<const std::uint8_t>(backing).first(len));
    for (std::size_t i = 0; i < len * 8; ++i) ASSERT_TRUE(r.get());
    EXPECT_THROW(r.get(), InvalidArgument) << "span of " << len << " bytes";
    EXPECT_EQ(r.position(), len * 8);
  }
  BitReader wide(std::span<const std::uint8_t>(backing).first(5));
  EXPECT_EQ(wide.get_bits(32), 0xFFFFFFFFu);
  EXPECT_THROW((void)wide.get_bits(9), InvalidArgument);
}

class BqRoundTrip
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, BqRoundTrip,
    ::testing::Values(std::pair{1u, 1u}, std::pair{4u, 4u},
                      std::pair{7u, 13u}, std::pair{64u, 64u},
                      std::pair{100u, 37u}, std::pair{360u, 360u},
                      std::pair{1u, 257u}));

TEST_P(BqRoundTrip, RandomDataDecodesExactly) {
  const auto [rows, cols] = GetParam();
  std::mt19937 rng(rows * 1000 + cols);
  std::uniform_int_distribution<std::uint32_t> dist(0, 0xFFFF);
  std::vector<CellValue> cells(static_cast<std::size_t>(rows) * cols);
  for (auto& v : cells) v = static_cast<CellValue>(dist(rng));

  const BqEncodedTile enc = bq_encode(cells, rows, cols);
  std::vector<CellValue> out(cells.size());
  bq_decode(enc, out);
  EXPECT_EQ(out, cells);
}

TEST_P(BqRoundTrip, SmoothDataDecodesExactly) {
  const auto [rows, cols] = GetParam();
  std::vector<CellValue> cells(static_cast<std::size_t>(rows) * cols);
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      cells[static_cast<std::size_t>(r) * cols + c] =
          static_cast<CellValue>((r / 8) * 16 + (c / 8));
    }
  }
  const BqEncodedTile enc = bq_encode(cells, rows, cols);
  std::vector<CellValue> out(cells.size());
  bq_decode(enc, out);
  EXPECT_EQ(out, cells);
}

TEST(BqTree, ConstantRasterCompressesToAlmostNothing) {
  const std::uint32_t n = 256;
  std::vector<CellValue> cells(n * n, 1234);
  const BqEncodedTile enc = bq_encode(cells, n, n);
  // Each present bitplane is a single all-ones root node (2 bits).
  EXPECT_LT(enc.payload.size(), 16u);
  std::vector<CellValue> out(cells.size());
  bq_decode(enc, out);
  EXPECT_EQ(out, cells);
}

TEST(BqTree, AllZeroPlanesAreDropped) {
  std::vector<CellValue> cells(64 * 64, 0);
  cells[0] = 0b101;  // only planes 0 and 2 have any bits
  const BqEncodedTile enc = bq_encode(cells, 64, 64);
  EXPECT_EQ(enc.plane_mask, 0b101u);
  std::vector<CellValue> out(cells.size());
  bq_decode(enc, out);
  EXPECT_EQ(out, cells);
}

TEST(BqTree, EmptyTile) {
  const BqEncodedTile enc = bq_encode({}, 0, 0);
  EXPECT_EQ(enc.plane_mask, 0u);
  std::vector<CellValue> out;
  EXPECT_NO_THROW(bq_decode(enc, out));
}

TEST(BqTree, SizeMismatchThrows) {
  std::vector<CellValue> cells(10);
  EXPECT_THROW(bq_encode(cells, 3, 4), InvalidArgument);
  const BqEncodedTile enc = bq_encode(cells, 2, 5);
  std::vector<CellValue> out(9);
  EXPECT_THROW(bq_decode(enc, out), InvalidArgument);
}

TEST(BqTree, EncodedPayloadIsPinned) {
  // The .bq format is the payload bytes: these values were produced by
  // the bit-at-a-time encoder, and every later encoder must reproduce
  // them exactly (also covering crc32 and the clipped-edge leaves).
  const GeoTransform t(-100.0, 40.0, 1.0 / 3600.0, 1.0 / 3600.0);
  const DemRaster dem = generate_dem(360, 360, t);
  const BqEncodedTile enc = bq_encode(dem.cells(), 360, 360);
  EXPECT_EQ(enc.plane_mask, 0x0DFFu);
  EXPECT_EQ(enc.payload.size(), 40752u);
  EXPECT_EQ(crc32(enc.payload.data(), enc.payload.size()), 0xB5D0D95Du);

  const DemRaster edge = generate_dem(363, 365, t);
  const BqEncodedTile clipped = bq_encode(edge.cells(), 363, 365);
  EXPECT_EQ(clipped.plane_mask, 0x0DFFu);
  EXPECT_EQ(clipped.payload.size(), 41589u);
  EXPECT_EQ(crc32(clipped.payload.data(), clipped.payload.size()),
            0x14642FDFu);
}

TEST(BqTree, EveryTruncationThrows) {
  // A 360x360 tile whose payload ends mid-stream must fail with a
  // zh::Error for every cut, reading nothing past the shortened payload
  // (the truncated vector is exactly sized, so ASan sees any overread).
  const std::uint32_t n = 360;
  std::vector<CellValue> cells(static_cast<std::size_t>(n) * n);
  std::mt19937 rng(5);
  for (std::uint32_t r = 0; r < n; ++r) {
    for (std::uint32_t c = 0; c < n; ++c) {
      cells[static_cast<std::size_t>(r) * n + c] = static_cast<CellValue>(
          (r / 16) * 64 + (c / 16) + (rng() % 1601 == 0 ? 1 : 0));
    }
  }
  const BqEncodedTile clean = bq_encode(cells, n, n);
  ASSERT_GT(clean.payload.size(), 100u);
  std::vector<CellValue> out(cells.size());
  bq_decode(clean, out);
  ASSERT_EQ(out, cells);

  for (std::size_t len = 0; len < clean.payload.size(); ++len) {
    BqEncodedTile cut;
    cut.rows = n;
    cut.cols = n;
    cut.plane_mask = clean.plane_mask;
    cut.payload.assign(clean.payload.begin(),
                       clean.payload.begin() +
                           static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(bq_decode(cut, out), Error) << "payload cut to " << len;
  }
}

TEST(BqTree, ReservedNodeCodeThrowsIoError) {
  BqEncodedTile tile;
  tile.rows = 4;
  tile.cols = 4;
  tile.plane_mask = 0x1;
  tile.payload = {0b11000000};
  std::vector<CellValue> out(16);
  EXPECT_THROW(bq_decode(tile, out), IoError);

  // The same code below a mixed root, inside the quadtree walk.
  tile.rows = 8;
  tile.cols = 8;
  tile.payload = {0b10001100, 0};
  out.resize(64);
  EXPECT_THROW(bq_decode(tile, out), IoError);
}

TEST(BqTree, SmoothTerrainCompressesWell) {
  // The paper reports ~18% of raw size on real SRTM data; fBm terrain
  // should land in the same regime (well under half of raw).
  const DemRaster dem = generate_dem(
      720, 720, GeoTransform(-100.0, 40.0, 1.0 / 3600.0, 1.0 / 3600.0));
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, 360);
  EXPECT_LT(comp.compression_ratio(), 0.5);
  EXPECT_GT(comp.compression_ratio(), 0.0);
}

TEST(BqTree, RandomNoiseDoesNotCompress) {
  const DemRaster noise = test::random_raster(256, 256, 5, 0xFFFF);
  const BqCompressedRaster comp = BqCompressedRaster::encode(noise, 128);
  // Incompressible input: ratio near (or above) 1.
  EXPECT_GT(comp.compression_ratio(), 0.9);
}

TEST(CompressedRaster, DecodeAllMatchesOriginal) {
  const DemRaster dem = generate_dem(
      300, 500, GeoTransform(-100.0, 40.0, 0.01, 0.01));
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, 128);
  const DemRaster back = comp.decode_all();
  EXPECT_EQ(back.rows(), dem.rows());
  EXPECT_EQ(back.cols(), dem.cols());
  EXPECT_TRUE(std::equal(back.cells().begin(), back.cells().end(),
                         dem.cells().begin()));
}

TEST(CompressedRaster, PerTileDecodeMatchesWindow) {
  const DemRaster dem = test::random_raster(250, 170, 11, 6000);
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, 64);
  const TilingScheme& tiling = comp.tiling();
  for (TileId id = 0; id < tiling.tile_count(); ++id) {
    const CellWindow w = tiling.tile_window(id);
    std::vector<CellValue> tile(static_cast<std::size_t>(w.cell_count()));
    comp.decode_tile(id, tile);
    for (std::int64_t r = 0; r < w.rows; ++r) {
      for (std::int64_t c = 0; c < w.cols; ++c) {
        ASSERT_EQ(tile[static_cast<std::size_t>(r * w.cols + c)],
                  dem.at(w.row0 + r, w.col0 + c))
            << "tile " << id << " local (" << r << "," << c << ")";
      }
    }
  }
}

TEST(CompressedRaster, PartialDecodeZeroesUnlistedTiles) {
  // 725x363 at tile 360: 3x2 tiles, the last row and column clipped to 5
  // and 3 cells. Listed tiles must equal the source, every other cell
  // must be zero (the decode target starts uninitialised), and the
  // nodata value must carry over.
  DemRaster dem = test::random_raster(725, 363, 9, 4999);
  for (CellValue& v : dem.cells()) v = static_cast<CellValue>(v + 1);
  dem.set_nodata(CellValue{7});
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, 360);
  const TilingScheme& tiling = comp.tiling();
  ASSERT_EQ(tiling.tile_count(), 6u);

  const std::vector<std::vector<TileId>> subsets = {
      {}, {5}, {3, 0, 5}, {1, 2, 4}, {0, 1, 2, 3, 4, 5}};
  for (const auto& ids : subsets) {
    const DemRaster part = comp.decode_tiles(ids);
    ASSERT_EQ(part.rows(), dem.rows());
    ASSERT_EQ(part.cols(), dem.cols());
    EXPECT_EQ(part.nodata(), dem.nodata());
    for (TileId id = 0; id < tiling.tile_count(); ++id) {
      const bool listed = std::find(ids.begin(), ids.end(), id) != ids.end();
      const CellWindow w = tiling.tile_window(id);
      for (std::int64_t r = w.row0; r < w.row0 + w.rows; ++r) {
        for (std::int64_t c = w.col0; c < w.col0 + w.cols; ++c) {
          ASSERT_EQ(part.at(r, c), listed ? dem.at(r, c) : CellValue{0})
              << "tile " << id << " cell (" << r << "," << c << ")";
        }
      }
    }
  }
}

TEST(CompressedRaster, ByteAccountingIsConsistent) {
  const DemRaster dem = test::random_raster(100, 100, 3, 100);
  const BqCompressedRaster comp = BqCompressedRaster::encode(dem, 50);
  EXPECT_EQ(comp.raw_bytes(), 100u * 100u * sizeof(CellValue));
  EXPECT_GT(comp.compressed_bytes(), 0u);
}

}  // namespace
}  // namespace zh
