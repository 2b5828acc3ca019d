// In-memory raster (2-D grid) with georeferencing and optional nodata.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "grid/geotransform.hpp"

namespace zh {

/// A rectangular cell window within a raster: rows [row0, row0+rows),
/// columns [col0, col0+cols).
struct CellWindow {
  std::int64_t row0 = 0;
  std::int64_t col0 = 0;
  std::int64_t rows = 0;
  std::int64_t cols = 0;

  [[nodiscard]] std::int64_t cell_count() const { return rows * cols; }
  bool operator==(const CellWindow&) const = default;
};

namespace detail {

/// std::allocator whose argument-less construct() leaves a trivial T
/// uninitialised, so `std::vector<T, DefaultInitAllocator<T>>(n)` skips
/// the zero-fill. Filling constructors still fill.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) != 0 ||
                  !std::is_trivially_default_constructible_v<U>) {
      std::construct_at(p, std::forward<Args>(args)...);
    }
  }
};

}  // namespace detail

class BqCompressedRaster;

/// Row-major raster of `T` cells with an affine geotransform. SRTM-style
/// DEMs use T = CellValue (uint16 elevation meters).
template <typename T>
class Raster {
 public:
  Raster() = default;
  Raster(std::int64_t rows, std::int64_t cols,
         GeoTransform transform = GeoTransform(), T fill = T{})
      : rows_(rows), cols_(cols), transform_(transform),
        data_(static_cast<std::size_t>(rows * cols), fill) {
    ZH_REQUIRE(rows >= 0 && cols >= 0, "raster dims must be non-negative");
  }

  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }
  [[nodiscard]] std::int64_t cell_count() const { return rows_ * cols_; }
  [[nodiscard]] const GeoTransform& transform() const { return transform_; }
  void set_transform(const GeoTransform& t) { transform_ = t; }

  [[nodiscard]] std::optional<T> nodata() const { return nodata_; }
  void set_nodata(std::optional<T> v) { nodata_ = v; }

  [[nodiscard]] T& at(std::int64_t row, std::int64_t col) {
    return data_[index(row, col)];
  }
  [[nodiscard]] const T& at(std::int64_t row, std::int64_t col) const {
    return data_[index(row, col)];
  }

  /// Whole-raster storage, row-major.
  [[nodiscard]] std::span<T> cells() { return {data_.data(), data_.size()}; }
  [[nodiscard]] std::span<const T> cells() const {
    return {data_.data(), data_.size()};
  }

  /// One row as a contiguous span.
  [[nodiscard]] std::span<const T> row(std::int64_t r) const {
    return cells().subspan(static_cast<std::size_t>(r * cols_),
                           static_cast<std::size_t>(cols_));
  }

  /// Geographic extent of the full raster.
  [[nodiscard]] GeoBox extent() const {
    return transform_.extent(rows_, cols_);
  }

  /// Copy a window out into a standalone raster (keeps georeferencing).
  /// The window must lie inside the raster.
  [[nodiscard]] Raster<T> copy_window(const CellWindow& w) const {
    ZH_REQUIRE(w.row0 >= 0 && w.col0 >= 0 && w.row0 + w.rows <= rows_ &&
                   w.col0 + w.cols <= cols_,
               "window out of raster bounds");
    Raster<T> out(w.rows, w.cols, transform_.for_window(w.row0, w.col0));
    out.set_nodata(nodata_);
    for (std::int64_t r = 0; r < w.rows; ++r) {
      const T* src = &data_[index(w.row0 + r, w.col0)];
      std::copy(src, src + w.cols,
                out.cells().data() + static_cast<std::size_t>(r * w.cols));
    }
    return out;
  }

  bool operator==(const Raster&) const = default;

 private:
  // BQ-Tree decode_tiles is the one writer that covers every cell itself
  // (decoded tiles and zeroed unlisted tiles, in one parallel pass), so it
  // alone may skip the serial fill.
  friend class BqCompressedRaster;
  struct Uninitialised {};
  Raster(Uninitialised /*tag*/, std::int64_t rows, std::int64_t cols,
         GeoTransform transform)
      : rows_(rows),
        cols_(cols),
        transform_(transform),
        data_(static_cast<std::size_t>(rows * cols)) {
    ZH_REQUIRE(rows >= 0 && cols >= 0, "raster dims must be non-negative");
  }

  [[nodiscard]] std::size_t index(std::int64_t row, std::int64_t col) const {
    ZH_REQUIRE(row >= 0 && row < rows_ && col >= 0 && col < cols_,
               "cell index out of range: (", row, ",", col, ") in ", rows_,
               "x", cols_);
    return static_cast<std::size_t>(row * cols_ + col);
  }

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  GeoTransform transform_;
  std::vector<T, detail::DefaultInitAllocator<T>> data_;
  std::optional<T> nodata_;
};

using DemRaster = Raster<CellValue>;

}  // namespace zh
