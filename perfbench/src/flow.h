// The design_flow workload: the paper's rapid design-and-synthesis flow,
// round-robin over the paper, W-CDMA-like and WiMAX-like specifications
// (the three standards of examples/sdr_multistandard.cpp). One iteration
// is one complete flow -- DesignFlow::design, generate_rtl, synthesize,
// verify -- with a seed-drawn in-band tone, and must pass its ripple,
// attenuation and SNR checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "serve.h"

namespace perfbench {

/// The untraced workload (contract metrics) or, with opts.traced, the
/// traced run's flow share: real flows alternating with span-recorded
/// flows (trace overhead) and layer-by-layer replays (the flow ledger).
void run_design_flow(const RunOptions& opts, Report& report);

/// Set-up only: one cold flow on the paper spec, in seconds.
double flow_setup_probe(const RunOptions& opts);

/// Flow ledger on the paper spec only (the serving workloads' preset
/// design): one real flow and one replay per repetition for `seconds`.
void flow_ledger_probe(std::uint64_t seed, double seconds, Report& report);

}  // namespace perfbench
