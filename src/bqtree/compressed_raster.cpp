#include "bqtree/compressed_raster.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "device/thread_pool.hpp"
#include "obs/obs.hpp"

namespace zh {

BqCompressedRaster BqCompressedRaster::encode(const DemRaster& raster,
                                              std::int64_t tile_size) {
  ZH_TRACE_SPAN("bqtree.encode", "pipeline");
  BqCompressedRaster out(
      TilingScheme(raster.rows(), raster.cols(), tile_size),
      raster.transform(), raster.nodata());
  const std::size_t n = out.tiling_.tile_count();
  out.tiles_.resize(n);
  ThreadPool::global().parallel_for(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t t = b; t < e; ++t) {
      const TileId id = static_cast<TileId>(t);
      const CellWindow w = out.tiling_.tile_window(id);
      // Gather the tile's cells into a contiguous buffer, then encode.
      std::vector<CellValue> cells(
          static_cast<std::size_t>(w.cell_count()));
      for (std::int64_t r = 0; r < w.rows; ++r) {
        const auto src = raster.row(w.row0 + r).subspan(
            static_cast<std::size_t>(w.col0),
            static_cast<std::size_t>(w.cols));
        std::copy(src.begin(), src.end(),
                  cells.begin() + static_cast<std::size_t>(r * w.cols));
      }
      out.tiles_[t] = bq_encode(cells, static_cast<std::uint32_t>(w.rows),
                                static_cast<std::uint32_t>(w.cols));
    }
  });
  return out;
}

BqCompressedRaster BqCompressedRaster::from_tiles(
    const TilingScheme& tiling, const GeoTransform& transform,
    std::vector<BqEncodedTile> tiles, std::optional<CellValue> nodata) {
  ZH_REQUIRE_IO(tiles.size() == tiling.tile_count(),
                "tile count does not match tiling: ", tiles.size(), " vs ",
                tiling.tile_count());
  for (TileId id = 0; id < tiles.size(); ++id) {
    const CellWindow w = tiling.tile_window(id);
    ZH_REQUIRE_IO(tiles[id].rows == static_cast<std::uint32_t>(w.rows) &&
                      tiles[id].cols == static_cast<std::uint32_t>(w.cols),
                  "tile ", id, " dims do not match the tiling window");
  }
  BqCompressedRaster out(tiling, transform, nodata);
  out.tiles_ = std::move(tiles);
  return out;
}

DemRaster BqCompressedRaster::decode_tiles(
    std::span<const TileId> ids) const {
  ZH_TRACE_SPAN("step0.decode", "pipeline");
  // The raster starts uninitialised and one parallel pass writes every
  // cell: listed tiles first, decoded straight into their windows, then
  // the rest, zeroed. Each window is first touched by the worker that
  // fills it; no thread clears the whole raster up front.
  const std::size_t n = tiling_.tile_count();
  std::vector<std::uint8_t> listed(n, 0);
  std::vector<TileId> order;
  order.reserve(n);
  for (const TileId id : ids) {
    ZH_REQUIRE(id < n, "tile id out of range");
    if (listed[id] == 0) order.push_back(id);
    listed[id] = 1;
  }
  const std::size_t n_listed = order.size();
  for (TileId id = 0; id < n; ++id) {
    if (listed[id] == 0) order.push_back(id);
  }

  DemRaster raster(DemRaster::Uninitialised{}, tiling_.raster_rows(),
                   tiling_.raster_cols(), transform_);
  raster.set_nodata(nodata_);
  const auto stride = static_cast<std::size_t>(raster.cols());
  std::atomic<std::uint64_t> bytes{0};
  ThreadPool::global().parallel_for(n, [&](std::size_t b, std::size_t e) {
    std::uint64_t local_bytes = 0;
    for (std::size_t i = b; i < e; ++i) {
      const TileId id = order[i];
      const CellWindow w = tiling_.tile_window(id);
      const auto window = raster.cells().subspan(
          static_cast<std::size_t>(w.row0) * stride +
              static_cast<std::size_t>(w.col0),
          static_cast<std::size_t>(w.rows - 1) * stride +
              static_cast<std::size_t>(w.cols));
      if (i < n_listed) {
        bq_decode(tile(id), window, stride);
        local_bytes += tile(id).compressed_bytes();
        continue;
      }
      for (std::int64_t r = 0; r < w.rows; ++r) {
        const auto row = window.subspan(static_cast<std::size_t>(r) * stride,
                                        static_cast<std::size_t>(w.cols));
        std::fill(row.begin(), row.end(), CellValue{0});
      }
    }
    bytes.fetch_add(local_bytes, std::memory_order_relaxed);
  });
  ZH_COUNTER_ADD("bqtree.bytes_decoded", bytes.load());
  ZH_COUNTER_ADD("bqtree.tiles_decoded", n_listed);
  return raster;
}

DemRaster BqCompressedRaster::decode_all() const {
  std::vector<TileId> ids(tiling_.tile_count());
  std::iota(ids.begin(), ids.end(), TileId{0});
  return decode_tiles(ids);
}

std::size_t BqCompressedRaster::compressed_bytes() const {
  std::size_t n = 0;
  for (const auto& t : tiles_) n += t.compressed_bytes();
  return n;
}

std::size_t BqCompressedRaster::raw_bytes() const {
  std::size_t n = 0;
  for (const auto& t : tiles_) n += t.raw_bytes();
  return n;
}

}  // namespace zh
