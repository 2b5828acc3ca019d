#include "bqtree/bqtree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "bqtree/bitstream.hpp"

namespace zh {

namespace {

constexpr unsigned kPlanes = 16;

// Summed-area table over one bitplane: sat(r, c) = number of set bits in
// the rectangle [0,r) x [0,c). Dimensions (rows+1) x (cols+1). One table
// is rebuilt in place for each plane of a tile.
class PlaneSat {
 public:
  PlaneSat(std::uint32_t rows, std::uint32_t cols)
      : cols1_(cols + 1),
        sat_(static_cast<std::size_t>(rows + 1) * (cols + 1), 0) {}

  /// Refill every interior entry from `plane` of `cells`; row 0 and
  /// column 0 stay zero from construction.
  void build(std::span<const CellValue> cells, std::uint32_t rows,
             std::uint32_t cols, unsigned plane) {
    for (std::uint32_t r = 0; r < rows; ++r) {
      const CellValue* row = cells.data() + static_cast<std::size_t>(r) * cols;
      std::uint32_t row_sum = 0;
      for (std::uint32_t c = 0; c < cols; ++c) {
        row_sum += (row[c] >> plane) & 1u;
        sat_[idx(r + 1, c + 1)] = sat_[idx(r, c + 1)] + row_sum;
      }
    }
  }

  /// Set-bit count in rows [r0, r1) x cols [c0, c1).
  [[nodiscard]] std::uint32_t count(std::uint32_t r0, std::uint32_t c0,
                                    std::uint32_t r1,
                                    std::uint32_t c1) const {
    return sat_[idx(r1, c1)] - sat_[idx(r0, c1)] - sat_[idx(r1, c0)] +
           sat_[idx(r0, c0)];
  }

 private:
  [[nodiscard]] std::size_t idx(std::uint32_t r, std::uint32_t c) const {
    return static_cast<std::size_t>(r) * cols1_ + c;
  }
  std::uint32_t cols1_;
  std::vector<std::uint32_t> sat_;
};

struct EncodeCtx {
  std::span<const CellValue> cells;
  std::uint32_t rows, cols;
  CellValue mask;
  const PlaneSat* sat;
  BitWriter* out;
};

// Encode the quadrant with top-left (r0, c0) and edge `edge`. Quadrants
// partially or fully outside the tile are clipped; fully-outside
// quadrants encode as all-zero so decode can stay shape-agnostic.
void encode_quad(const EncodeCtx& ctx, std::uint32_t r0, std::uint32_t c0,
                 std::uint32_t edge) {
  const std::uint32_t r1 = std::min(r0 + edge, ctx.rows);
  const std::uint32_t c1 = std::min(c0 + edge, ctx.cols);
  if (r0 >= r1 || c0 >= c1) {
    ctx.out->put_bits(0b00, 2);
    return;
  }
  const std::uint32_t ones = ctx.sat->count(r0, c0, r1, c1);
  const std::uint32_t area = (r1 - r0) * (c1 - c0);
  if (ones == 0) {
    ctx.out->put_bits(0b00, 2);
    return;
  }
  if (ones == area) {
    ctx.out->put_bits(0b01, 2);
    return;
  }
  ctx.out->put_bits(0b10, 2);
  if (edge <= kBqLeafEdge) {
    // Literal: in-bounds cells of the quadrant, row-major, one row word
    // per put_bits.
    for (std::uint32_t r = r0; r < r1; ++r) {
      const CellValue* row =
          ctx.cells.data() + static_cast<std::size_t>(r) * ctx.cols;
      std::uint32_t bits = 0;
      for (std::uint32_t c = c0; c < c1; ++c) {
        bits = (bits << 1u) | ((row[c] & ctx.mask) != 0 ? 1u : 0u);
      }
      ctx.out->put_bits(bits, c1 - c0);
    }
    return;
  }
  const std::uint32_t half = edge / 2;
  encode_quad(ctx, r0, c0, half);
  encode_quad(ctx, r0, c0 + half, half);
  encode_quad(ctx, r0 + half, c0, half);
  encode_quad(ctx, r0 + half, c0 + half, half);
}

// kSpread[n] spreads a 4-bit literal row n (MSB = leftmost cell) into
// four uint16 lanes holding 0 or 1, in memory order, so a row of a 4x4
// leaf becomes one 64-bit OR into the cells.
static_assert(std::endian::native == std::endian::little,
              "literal-row lanes assume a little-endian host");
static_assert(kBqLeafEdge == 4, "a literal row must fill one 64-bit word");
constexpr std::array<std::uint64_t, 16> make_spread() {
  std::array<std::uint64_t, 16> t{};
  for (unsigned n = 0; n < 16; ++n) {
    for (unsigned c = 0; c < kBqLeafEdge; ++c) {
      t[n] |= std::uint64_t{(n >> (kBqLeafEdge - 1 - c)) & 1u} << (16u * c);
    }
  }
  return t;
}
constexpr std::array<std::uint64_t, 16> kSpread = make_spread();

struct DecodeCtx {
  CellValue* cells;
  std::uint32_t rows, cols;
  std::size_t stride;  // cells between row starts
  CellValue mask;
  BitReader* in;

  [[nodiscard]] CellValue* row(std::uint32_t r, std::uint32_t c0) const {
    return cells + static_cast<std::size_t>(r) * stride + c0;
  }

  // Clip a quadrant to the tile. One wholly outside it clips to nothing
  // (only a corrupt stream marks one non-zero), so widths stay >= 0.
  [[nodiscard]] std::uint32_t row_end(std::uint32_t r0,
                                      std::uint32_t edge) const {
    return std::max(r0, std::min(r0 + edge, rows));
  }
  [[nodiscard]] std::uint32_t col_end(std::uint32_t c0,
                                      std::uint32_t edge) const {
    return std::max(c0, std::min(c0 + edge, cols));
  }

  void fill_ones(std::uint32_t r0, std::uint32_t c0, std::uint32_t r1,
                 std::uint32_t c1) const {
    for (std::uint32_t r = r0; r < r1; ++r) {
      CellValue* cells_row = row(r, c0);
      for (std::uint32_t c = 0; c < c1 - c0; ++c) cells_row[c] |= mask;
    }
  }
};

[[noreturn]] void reserved_code() {
  throw IoError("corrupt BQ-Tree stream: reserved node code 11");
}

// A kBqLeafEdge quadrant: its node code, then its literal bits if mixed.
// A whole 4x4 literal is one 16-bit read and one 64-bit OR per row; a
// leaf clipped by the tile edge carries only its in-bounds cells.
inline void decode_leaf(const DecodeCtx& ctx, std::uint32_t r0,
                        std::uint32_t c0) {
  const std::uint32_t code = ctx.in->get_bits(2);
  if (code == 0b00) return;  // all zero: output pre-cleared
  if (code == 0b11) reserved_code();
  const std::uint32_t r1 = ctx.row_end(r0, kBqLeafEdge);
  const std::uint32_t c1 = ctx.col_end(c0, kBqLeafEdge);
  if (r1 - r0 == kBqLeafEdge && c1 - c0 == kBqLeafEdge) {
    const std::uint32_t bits =
        code == 0b01 ? 0xFFFFu : ctx.in->get_bits(16);
    for (std::uint32_t r = 0; r < kBqLeafEdge; ++r) {
      CellValue* row = ctx.row(r0 + r, c0);
      const std::uint32_t nibble = (bits >> (12u - 4u * r)) & 0xFu;
      std::uint64_t word = 0;
      std::memcpy(&word, row, sizeof(word));
      word |= kSpread[nibble] * ctx.mask;
      std::memcpy(row, &word, sizeof(word));
    }
  } else if (code == 0b01) {
    ctx.fill_ones(r0, c0, r1, c1);
  } else {
    for (std::uint32_t r = r0; r < r1; ++r) {
      CellValue* row = ctx.row(r, c0);
      for (std::uint32_t c = 0; c < c1 - c0; ++c) {
        if (ctx.in->get()) row[c] |= ctx.mask;
      }
    }
  }
}

// A quadrant of edge > kBqLeafEdge. Children at leaf size are decoded
// inline rather than through another call.
void decode_quad(const DecodeCtx& ctx, std::uint32_t r0, std::uint32_t c0,
                 std::uint32_t edge) {
  switch (ctx.in->get_bits(2)) {
    case 0b00:
      return;  // all zero: output pre-cleared
    case 0b01:
      ctx.fill_ones(r0, c0, ctx.row_end(r0, edge), ctx.col_end(c0, edge));
      return;
    case 0b10: {
      const std::uint32_t half = edge / 2;
      if (half == kBqLeafEdge) {
        decode_leaf(ctx, r0, c0);
        decode_leaf(ctx, r0, c0 + half);
        decode_leaf(ctx, r0 + half, c0);
        decode_leaf(ctx, r0 + half, c0 + half);
      } else {
        decode_quad(ctx, r0, c0, half);
        decode_quad(ctx, r0, c0 + half, half);
        decode_quad(ctx, r0 + half, c0, half);
        decode_quad(ctx, r0 + half, c0 + half, half);
      }
      return;
    }
    default:
      reserved_code();
  }
}

std::uint32_t root_edge(std::uint32_t rows, std::uint32_t cols) {
  const std::uint32_t m = std::max(rows, cols);
  return std::bit_ceil(std::max<std::uint32_t>(m, kBqLeafEdge));
}

}  // namespace

BqEncodedTile bq_encode(std::span<const CellValue> cells, std::uint32_t rows,
                        std::uint32_t cols) {
  ZH_REQUIRE(cells.size() == static_cast<std::size_t>(rows) * cols,
             "cell span size does not match dims");
  BqEncodedTile tile;
  tile.rows = rows;
  tile.cols = cols;
  if (rows == 0 || cols == 0) return tile;

  // Plane mask: skip planes with no set bits anywhere in the tile.
  CellValue any = 0;
  for (const CellValue v : cells) any |= v;

  BitWriter writer;
  PlaneSat sat(rows, cols);
  const std::uint32_t edge = root_edge(rows, cols);
  for (unsigned p = 0; p < kPlanes; ++p) {
    const CellValue mask = static_cast<CellValue>(1u << p);
    if ((any & mask) == 0) continue;
    tile.plane_mask |= mask;
    sat.build(cells, rows, cols, p);
    EncodeCtx ctx{cells, rows, cols, mask, &sat, &writer};
    encode_quad(ctx, 0, 0, edge);
  }
  tile.payload = writer.take();
  return tile;
}

void bq_decode(const BqEncodedTile& tile, std::span<CellValue> out) {
  bq_decode(tile, out, tile.cols);
}

void bq_decode(const BqEncodedTile& tile, std::span<CellValue> out,
               std::size_t row_stride) {
  ZH_REQUIRE(row_stride >= tile.cols, "row stride below tile width");
  const std::size_t span_cells =
      tile.rows == 0
          ? 0
          : static_cast<std::size_t>(tile.rows - 1) * row_stride + tile.cols;
  ZH_REQUIRE(out.size() == span_cells,
             "output span size does not match dims");
  for (std::uint32_t r = 0; r < tile.rows; ++r) {
    const auto row =
        out.subspan(static_cast<std::size_t>(r) * row_stride, tile.cols);
    std::fill(row.begin(), row.end(), CellValue{0});
  }
  if (tile.rows == 0 || tile.cols == 0) return;

  BitReader reader(tile.payload);
  const std::uint32_t edge = root_edge(tile.rows, tile.cols);
  for (unsigned p = 0; p < kPlanes; ++p) {
    const CellValue mask = static_cast<CellValue>(1u << p);
    if ((tile.plane_mask & mask) == 0) continue;
    const DecodeCtx ctx{out.data(), tile.rows, tile.cols, row_stride, mask,
                        &reader};
    if (edge == kBqLeafEdge) {
      decode_leaf(ctx, 0, 0);
    } else {
      decode_quad(ctx, 0, 0, edge);
    }
  }
}

}  // namespace zh
