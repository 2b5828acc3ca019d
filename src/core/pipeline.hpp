// The end-to-end zonal-histogramming pipeline (Fig. 1 of the paper).
//
// Runs Steps 0-4 on a device through the filter-first executor
// (core/executor), with per-step wall times (the Table-2 breakdown) and
// work counters (input to the performance model and the ablation
// benches).
#pragma once

#include <cstdint>
#include <optional>

#include "bqtree/compressed_raster.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/histogram.hpp"
#include "core/step1_tile_hist.hpp"  // IWYU pragma: export (step composers)
#include "core/step2_pairing.hpp"
#include "core/step4_refine.hpp"
#include "device/device.hpp"
#include "geom/polygon.hpp"
#include "geom/soa.hpp"
#include "grid/raster.hpp"
#include "grid/tiling.hpp"

namespace zh {

struct ZonalConfig {
  std::int64_t tile_size = 360;  ///< cells per tile edge (paper: 0.1 deg)
  BinIndex bins = 5000;          ///< histogram bins (paper: 5000)
  RefineGranularity refine_granularity =
      RefineGranularity::kPolygonGroup;  ///< Step-4 block scheduling
  RefineStrategy refine_strategy =
      RefineStrategy::kAuto;  ///< Step-4 cell classification path
};

/// Work accounting of one pipeline run; all quantities exact.
struct WorkCounters {
  /// Raster cells the run covers (the Steps 0-1 input of PerfModel),
  /// although Step 1 histograms only inside tiles; for QueryEngine, the
  /// cells its cache fills counted.
  std::uint64_t cells_total = 0;
  std::uint64_t tiles_total = 0;
  std::uint64_t tiles_decoded = 0;      ///< BQ tiles Step 0 decoded
  std::uint64_t candidate_pairs = 0;    ///< MBB-rasterized pairs (Step 2)
  std::uint64_t pairs_inside = 0;
  std::uint64_t pairs_intersect = 0;
  std::uint64_t polygon_vertices = 0;
  std::uint64_t aggregate_bin_adds = 0; ///< inside pairs x bins (Step 3)
  std::uint64_t pip_cell_tests = 0;     ///< Step 4 cell tests
  std::uint64_t pip_edge_tests = 0;     ///< Step 4 edge evaluations
  std::uint64_t pip_rows_scanned = 0;   ///< Step 4 scanline rows (0 = brute)
  std::uint64_t pip_run_cells = 0;      ///< Step 4 run-classified cells
  std::uint64_t cells_in_polygons = 0;  ///< final attributed cell count
  std::uint64_t compressed_bytes = 0;   ///< Step 0 input volume (if any)
  std::uint64_t raw_bytes = 0;

  WorkCounters& operator+=(const WorkCounters& o);
};

struct ZonalResult {
  HistogramSet per_polygon;
  StepTimes times;
  WorkCounters work;
};

namespace obs {
struct RunReport;
}  // namespace obs

/// Flatten `work` into `report.counters` under the canonical names used
/// by the zh-run-report-v1 schema (cells_total, pairs_inside, ...).
void append_work_counters(obs::RunReport& report, const WorkCounters& work);

/// Reusable scratch memory across pipeline runs. The Step-1 table is
/// inside tiles x bins x 4 B -- up to ~1.4 GB for the largest CONUS
/// raster at 5000 bins -- and allocating it fresh per run means
/// re-faulting gigabytes each time (painfully slow on virtualized
/// hosts). Passing one workspace to successive run() calls keeps the
/// table resident, as the paper's implementation keeps it in device
/// memory.
struct ZonalWorkspace {
  HistogramSet tile_hist;
};

class ZonalPipeline {
 public:
  ZonalPipeline(Device& device, ZonalConfig config)
      : device_(&device), config_(config) {
    ZH_REQUIRE(config.tile_size >= 1, "tile size must be positive");
    ZH_REQUIRE(config.bins >= 1, "bin count must be positive");
  }

  [[nodiscard]] const ZonalConfig& config() const { return config_; }

  /// Run Steps 1-4 on an uncompressed raster (Step 0 time = 0). Only
  /// tiles inside some polygon are histogrammed.
  [[nodiscard]] ZonalResult run(const DemRaster& raster,
                                const PolygonSet& polygons,
                                ZonalWorkspace* workspace = nullptr) const;

  /// Run Steps 0-4 from BQ-Tree input: plan, decode only the tiles the
  /// plan reads (timed as Step 0; tiles outside every polygon stay
  /// compressed), then the zonal steps. The compressed raster's tiling
  /// must use this pipeline's tile size.
  [[nodiscard]] ZonalResult run(const BqCompressedRaster& compressed,
                                const PolygonSet& polygons,
                                ZonalWorkspace* workspace = nullptr) const;

  /// Run Steps 1-4 with a pre-built SoA (lets callers amortize the
  /// flattening across partitions; the SoA must match `polygons`).
  [[nodiscard]] ZonalResult run(const DemRaster& raster,
                                const PolygonSet& polygons,
                                const PolygonSoA& soa,
                                ZonalWorkspace* workspace = nullptr) const;

  /// Bounded-memory run: process the raster through a part_rows x
  /// part_cols grid of tile-aligned windows (the Table-1 partition
  /// pattern), merging per-polygon histograms additively. Caps the
  /// per-tile table at the largest window's tiles x bins, the way the
  /// paper's 6 GB device memory bounds it. Result identical to run().
  [[nodiscard]] ZonalResult run_partitioned(
      const DemRaster& raster, const PolygonSet& polygons, int part_rows,
      int part_cols, ZonalWorkspace* workspace = nullptr) const;

 private:
  Device* device_;
  ZonalConfig config_;
};

}  // namespace zh
