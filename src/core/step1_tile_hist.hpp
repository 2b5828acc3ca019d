// Step 1 as published: per-tile histograms of every tile (Sec. III.A,
// Fig. 2).
//
// One device block per raster tile; the block's virtual threads zero the
// tile's bins, then stride over the tile's cells updating bins with
// atomic adds -- the structure of the paper's CellAggrKernel. Cells equal
// to the raster's nodata value are skipped; values >= bins clamp into the
// top bin (the paper assumes v < B; the clamp makes the API total).
//
// The pipelines run Step 1 through core/executor instead (inside tiles
// only, one plain loop per tile, identical counts). This faithful kernel
// stays for the count-mode and cell-order ablations.
#pragma once

#include "common/types.hpp"
#include "core/histogram.hpp"
#include "device/device.hpp"
#include "grid/morton.hpp"
#include "grid/raster.hpp"
#include "grid/tiling.hpp"

namespace zh {

/// Counting strategy ablation (Sec. III.A discusses the tradeoff: atomics
/// into the shared per-tile histogram vs. privatized per-thread
/// histograms merged afterwards, impractical for large bin counts).
enum class CountMode {
  kAtomic,      ///< atomicAdd into the per-tile histogram (paper default)
  kPrivatized,  ///< per-virtual-thread histograms, merged per block
};

/// Compute per-tile histograms for every tile of `tiling` over `raster`
/// into `out` (reshaped to tile_count x bins, reusing its allocation).
/// `order` selects the within-tile visitation order: kRowMajor is the
/// paper's published kernel; kMorton is its deferred locality
/// optimization (Sec. III.A future work). The result is identical either
/// way -- histograms are order-independent.
void tile_histograms_into(Device& device, const DemRaster& raster,
                          const TilingScheme& tiling, BinIndex bins,
                          CountMode mode, HistogramSet& out,
                          CellOrder order = CellOrder::kRowMajor);

/// Compute per-tile histograms for every tile of `tiling` over `raster`.
/// Result: one histogram group per tile, `bins` bins each.
[[nodiscard]] HistogramSet tile_histograms(
    Device& device, const DemRaster& raster, const TilingScheme& tiling,
    BinIndex bins, CountMode mode = CountMode::kAtomic,
    CellOrder order = CellOrder::kRowMajor);

}  // namespace zh
