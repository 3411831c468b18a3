// The traced run's layer replays: each layer's public functions called
// directly from the benchmark, on the workload's own inputs, timed by
// spans. Metric names and their targets are listed in
// perfbench/targets.json.
#pragma once

#include "common.h"
#include "serve.h"

namespace perfbench {

struct LayerInputs {
  const Plan* own = nullptr;   ///< the workload's plan: wire frames
  Plan* lockstep = nullptr;    ///< lockstep job stream (model run)
  Plan* churn = nullptr;       ///< scalar job stream + CFG1 pool (model run)
  /// Wire-to-wire CPU ns per code of the workload's saturated phase (the
  /// serving ledger's denominator).
  double serve_cpu_ns_per_code = 0.0;
};

/// Runs every service/runtime/decimator replay within about `seconds`,
/// adding per-layer metrics (and the serving ledger) to `report`.
void layer_suite(const LayerInputs& in, double seconds, Report& report);

}  // namespace perfbench
