// Activity-driven power and area estimation (PrimeTime-PX substitute).
//
// Dynamic power comes from the RTL simulator's per-node bit-toggle counts
// under the paper's stimulus (a 5 MHz tone at the MSA); leakage and area
// come from the mapped cell counts. Per-stage reports regenerate Table II,
// Fig. 12 (area) and Fig. 13 (power distribution).
#pragma once

#include <string>
#include <vector>

#include "src/rtl/builders.h"
#include "src/rtl/sim.h"
#include "src/synth/celllib.h"

namespace dsadc::synth {

/// Mapped-cell inventory of a module.
struct CellCounts {
  std::size_t adder_bits = 0;     ///< full-adder cells
  std::size_t register_bits = 0;  ///< flip-flop cells
  std::size_t mux_bits = 0;       ///< 2:1 mux cells
  std::size_t adders = 0;         ///< adder instances (word level)
  std::size_t registers = 0;      ///< register instances (word level)
  std::size_t muxes = 0;          ///< mux instances (word level)
};

CellCounts map_cells(const rtl::Module& module);

/// Power/area result for one module under one stimulus.
struct Estimate {
  std::string name;
  double dynamic_power_w = 0.0;
  double leakage_power_w = 0.0;
  double area_mm2 = 0.0;
  CellCounts cells;
};

/// Estimate power for a module given a simulation run at base clock
/// frequency `base_clock_hz`. `options` supplies the retiming flag (glitch
/// multiplier on combinational adders when not retimed).
Estimate estimate(const rtl::Module& module, const rtl::Activity& activity,
                  double base_clock_hz, const CellLibrary& lib,
                  const rtl::BuildOptions& options);

/// Area-only estimate (no simulation needed).
Estimate estimate_area(const rtl::Module& module, const CellLibrary& lib);

/// Area/leakage from *proven* widths: runs the proof-carrying netlist
/// optimizer (src/analyze/opt) over the module and prices the optimized
/// netlist -- dead logic dropped, constants folded, every width shrunk to
/// its interval-proven requirement. Reported under the original module's
/// name so stage tables line up with estimate_area.
Estimate estimate_area_proven(const rtl::Module& module,
                              const CellLibrary& lib);

/// Per-stage power profile of the whole chain: runs the per-stage modules
/// with the stage's own input stream taken from a full-chain behavioral
/// run (the same composition the paper uses for Table II). Activity comes
/// from rtl::CompiledSimulator, bit-identical to the interpreted reference.
struct PowerProfile {
  std::vector<Estimate> stages;
  double total_dynamic_w = 0.0;
  double total_leakage_w = 0.0;
  double total_area_mm2 = 0.0;
};

PowerProfile profile_chain(const decim::ChainConfig& config,
                           const std::vector<std::int32_t>& codes,
                           double base_clock_hz, const CellLibrary& lib,
                           const rtl::BuildOptions& options);

}  // namespace dsadc::synth
