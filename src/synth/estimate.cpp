#include "src/synth/estimate.h"

#include <cmath>
#include <set>
#include <stdexcept>

#include "src/analyze/opt/opt.h"
#include "src/rtl/compiled_sim.h"

namespace dsadc::synth {

CellCounts map_cells(const rtl::Module& module) {
  CellCounts c;
  for (const auto& n : module.nodes()) {
    switch (n.kind) {
      case rtl::OpKind::kAdd:
      case rtl::OpKind::kSub:
      case rtl::OpKind::kNeg:
        c.adder_bits += static_cast<std::size_t>(n.width);
        c.adders += 1;
        break;
      case rtl::OpKind::kRequant:
        // Rounding adder + saturation comparator ~ one adder of the
        // output width.
        c.adder_bits += static_cast<std::size_t>(n.width);
        c.adders += 1;
        break;
      case rtl::OpKind::kMux:
        c.mux_bits += static_cast<std::size_t>(n.width);
        c.muxes += 1;
        break;
      case rtl::OpKind::kReg:
      case rtl::OpKind::kDecimate:
        c.register_bits += static_cast<std::size_t>(n.width);
        c.registers += 1;
        break;
      default:
        break;  // shifts and constants are wiring
    }
  }
  return c;
}

Estimate estimate(const rtl::Module& module, const rtl::Activity& activity,
                  double base_clock_hz, const CellLibrary& lib,
                  const rtl::BuildOptions& options) {
  if (activity.bit_toggles.size() != module.size()) {
    throw std::invalid_argument("estimate: activity/module size mismatch");
  }
  Estimate e = estimate_area(module, lib);
  const double sim_seconds =
      static_cast<double>(activity.base_ticks) / base_clock_hz;
  if (sim_seconds <= 0.0) throw std::invalid_argument("estimate: empty run");

  const double glitch =
      options.retimed ? 1.0 : lib.glitch_factor_unretimed;
  double energy = 0.0;
  for (std::size_t i = 0; i < module.size(); ++i) {
    const auto& n = module.nodes()[i];
    const double toggles = static_cast<double>(activity.bit_toggles[i]);
    const double updates = static_cast<double>(activity.updates[i]);
    switch (n.kind) {
      case rtl::OpKind::kAdd:
      case rtl::OpKind::kSub:
      case rtl::OpKind::kNeg:
        energy += toggles * lib.fa_energy_j * glitch;
        break;
      case rtl::OpKind::kRequant:
        energy += toggles * lib.fa_energy_j;
        break;
      case rtl::OpKind::kMux:
        energy += toggles * lib.mux_energy_j;
        break;
      case rtl::OpKind::kReg:
      case rtl::OpKind::kDecimate:
        energy += updates * static_cast<double>(n.width) * lib.ff_clk_energy_j;
        energy += toggles * lib.ff_data_energy_j;
        break;
      default:
        break;
    }
  }
  // Clock spine: one charge per cycle of each distinct clock domain used
  // by sequential cells in this module.
  std::set<int> domains;
  for (const auto& n : module.nodes()) {
    if (n.kind == rtl::OpKind::kReg || n.kind == rtl::OpKind::kDecimate) {
      domains.insert(n.clock_div);
    }
  }
  for (int div : domains) {
    energy += lib.clock_spine_energy_j *
              (static_cast<double>(activity.base_ticks) / div);
  }
  e.dynamic_power_w = energy * lib.overhead_factor / sim_seconds;
  return e;
}

Estimate estimate_area(const rtl::Module& module, const CellLibrary& lib) {
  Estimate e;
  e.name = module.name();
  e.cells = map_cells(module);
  e.leakage_power_w =
      (static_cast<double>(e.cells.adder_bits) * lib.fa_leakage_w +
       static_cast<double>(e.cells.register_bits) * lib.ff_leakage_w +
       static_cast<double>(e.cells.mux_bits) * lib.mux_leakage_w) *
      lib.overhead_factor;
  e.area_mm2 = (static_cast<double>(e.cells.adder_bits) * lib.fa_area_um2 +
                static_cast<double>(e.cells.register_bits) * lib.ff_area_um2 +
                static_cast<double>(e.cells.mux_bits) * lib.mux_area_um2) *
               lib.overhead_factor / 1e6;
  return e;
}

Estimate estimate_area_proven(const rtl::Module& module,
                              const CellLibrary& lib) {
  const analyze::opt::OptResult opt = analyze::opt::optimize(module);
  Estimate e = estimate_area(opt.module, lib);
  e.name = module.name();
  return e;
}

PowerProfile profile_chain(const decim::ChainConfig& config,
                           const std::vector<std::int32_t>& codes,
                           double base_clock_hz, const CellLibrary& lib,
                           const rtl::BuildOptions& options) {
  // Behavioral run to recover each stage's input stream.
  decim::DecimationChain chain(config);
  std::vector<decim::StageProbe> probes;
  (void)chain.process(codes, &probes);
  // probes: input, sinc.._1, sinc.._2, sinc.._3, halfband, scaler, equalizer.
  if (probes.size() != config.cic_stages.size() + 4) {
    throw std::runtime_error("profile_chain: unexpected probe layout");
  }

  const rtl::BuiltChain built = rtl::build_chain(config, options);
  if (built.stages.size() != probes.size() - 1) {
    throw std::runtime_error("profile_chain: stage/probe mismatch");
  }

  // CIC DC gain (for the relabel in front of the halfband).
  int gain_log2 = 0;
  for (const auto& s : config.cic_stages) {
    gain_log2 += s.order * static_cast<int>(std::log2(s.decimation));
  }

  PowerProfile profile;
  for (std::size_t i = 0; i < built.stages.size(); ++i) {
    const rtl::BuiltStage& stage = built.stages[i];
    // The stage's input stream is the previous probe's samples.
    std::vector<std::int64_t> stream = probes[i].samples;
    if (built.stage_names[i] == "halfband") {
      // Apply the CIC-gain relabel exactly as the chain does.
      for (auto& v : stream) {
        v = fx::requantize(v, gain_log2, config.hbf_in_format,
                           fx::Rounding::kRoundNearest,
                           fx::Overflow::kSaturate);
      }
    }
    // Activity comes from the compiled engine: its toggle and update
    // counts are bit-identical to the interpreted rtl::Simulator, which
    // stays the reference (tests/test_synth.cpp holds the two together).
    const rtl::CompiledSimulator sim(stage.module);
    const rtl::SimResult run =
        sim.run({{stage.in, std::span<const std::int64_t>(stream)}},
                {.activity = true});
    Estimate e =
        estimate(stage.module, run.activity, base_clock_hz, lib, options);
    e.name = built.stage_names[i];
    profile.total_dynamic_w += e.dynamic_power_w;
    profile.total_leakage_w += e.leakage_power_w;
    profile.total_area_mm2 += e.area_mm2;
    profile.stages.push_back(std::move(e));
  }
  return profile;
}

}  // namespace dsadc::synth
