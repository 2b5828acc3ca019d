// The three benchmark workloads (see perfbench/README.md for why each
// exists and which layers it stresses).
#pragma once

#include "bench.hpp"

namespace zhb {

/// Repeated single-node jobs over a BQ-compressed 1-arc-second DEM
/// window, as `zhist hist dem.bq counties.tsv` runs them.
Outcome run_dem_bq_counties(const Options& opt);

/// One cold batch of area-of-interest queries through a fresh
/// QueryEngine, as `zhist query --batch` runs it.
Outcome run_aoi_query_batch(const Options& opt);

/// Repeated 4-rank fault-tolerant cluster jobs with a durable journal,
/// as `zhist hist --ranks 4 --checkpoint-dir` runs them.
Outcome run_cluster_journaled(const Options& opt);

}  // namespace zhb
