// Compiled-vs-interpreted simulator equivalence.
//
// The compiled engine (src/rtl/compiled_sim.h) must be bit-exact against
// the interpreted reference (src/rtl/sim.h) on every netlist the flow
// produces: identical output streams always, and identical per-node
// toggle/update counts in activity mode. Coverage here is three-layered:
//
//   * direct semantics checks on small hand-built modules (multi-rate
//     phases, feedback registers, constant-fed registers at tick 0,
//     non-power-of-two periods);
//   * every paper-chain stage netlist plus the flattened full chain,
//     driven by all 9 property-stimulus classes;
//   * randomized fuzz configurations (DSADC_FUZZ_SEED-style seeds) over
//     CIC specs and stimulus draws.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

#include "src/decimator/chain.h"
#include "src/rtl/builders.h"
#include "src/rtl/compiled_sim.h"
#include "src/rtl/sim.h"
#include "src/verify/stimulus.h"

namespace {

using namespace dsadc;
using namespace dsadc::rtl;

/// Run both engines on the same single-input stimulus and require equal
/// outputs and (activity mode) equal toggle accounting.
void expect_engines_agree(const Module& m, NodeId in,
                          const std::vector<std::int64_t>& stimulus,
                          const std::string& what) {
  Simulator interp(m);
  const SimResult ref = interp.run({{in, stimulus}});

  CompiledSimulator compiled(m);
  const SimResult fast =
      compiled.run({{in, stimulus}}, CompiledRunOptions{.activity = true});

  ASSERT_EQ(ref.outputs.size(), fast.outputs.size()) << what;
  for (const auto& [id, stream] : ref.outputs) {
    const auto it = fast.outputs.find(id);
    ASSERT_NE(it, fast.outputs.end()) << what;
    EXPECT_EQ(stream, it->second) << what << ": output node " << id;
  }
  EXPECT_EQ(ref.activity.base_ticks, fast.activity.base_ticks) << what;
  EXPECT_EQ(ref.activity.bit_toggles, fast.activity.bit_toggles) << what;
  EXPECT_EQ(ref.activity.updates, fast.activity.updates) << what;

  // Default (pure dataflow) mode: same outputs, zeroed counters.
  const SimResult plain = compiled.run({{in, stimulus}});
  for (const auto& [id, stream] : ref.outputs) {
    EXPECT_EQ(stream, plain.outputs.at(id)) << what << " (dataflow mode)";
  }
}

std::vector<std::int64_t> iota_stimulus(std::size_t n, std::int64_t lo,
                                        std::int64_t hi) {
  std::vector<std::int64_t> v(n);
  std::int64_t x = lo;
  for (auto& s : v) {
    s = x;
    if (++x > hi) x = lo;
  }
  return v;
}

TEST(CompiledSim, MatchesInterpreterOnMultiRatePipeline) {
  Module m("t");
  const NodeId in = m.input("in", 8);
  const NodeId d2 = m.decimate(in, 2);
  const NodeId sum = m.add(d2, d2, 10);
  const NodeId d3 = m.decimate(sum, 3);  // period lcm(2, 6) = 6
  const NodeId r = m.reg(d3);
  m.output("fast", sum);
  m.output("slow", r);
  EXPECT_EQ(CompiledSimulator(m).period(), 6);
  expect_engines_agree(m, in, iota_stimulus(97, -128, 127), "multirate");
}

TEST(CompiledSim, MatchesInterpreterOnAccumulatorFeedback) {
  Module m("t");
  const NodeId in = m.input("in", 8);
  const NodeId st = m.reg_placeholder(16, 1);
  const NodeId sum = m.add(in, st, 16);
  m.connect_reg(st, sum);
  m.output("y", sum);
  expect_engines_agree(m, in, iota_stimulus(64, -8, 7), "feedback");
}

TEST(CompiledSim, MatchesInterpreterOnRequantShiftNegConst) {
  Module m("t");
  const NodeId in = m.input("in", 12);
  const NodeId c = m.constant(-37, 12, 2);
  const NodeId d = m.decimate(in, 2);
  const NodeId s = m.sub(d, c, 13);
  const NodeId l = m.shl(s, 3);
  const NodeId n = m.neg(l, 16);
  const NodeId q = m.requant(n, 4, fx::Format{9, 0},
                             fx::Rounding::kRoundNearest,
                             fx::Overflow::kSaturate);
  m.output("y", q);
  m.output("raw", m.shr(n, 2));
  expect_engines_agree(m, in, iota_stimulus(80, -2048, 2047), "ops");
}

TEST(CompiledSim, MatchesInterpreterOnRegOfConstAtTickZero) {
  // Registers fed by a constant pin the t == 0 ordering: the first
  // capture reads the pre-commit (zero) value, and the constant commits
  // only after that tick's captures, so the first two samples differ from
  // the steady state.
  Module m("regconst");
  const NodeId in = m.input("in", 4);
  const NodeId c = m.constant(21, 8, 1);
  const NodeId r1 = m.reg(c);
  const NodeId r2 = m.reg(r1);
  const NodeId s = m.add(m.add(in, r1, 9), r2, 10);
  m.output("y", s);
  expect_engines_agree(m, in, iota_stimulus(40, -8, 7), "reg-of-const");
}

TEST(CompiledSim, ErrorsMatchInterpreter) {
  Module m("t");
  const NodeId in = m.input("in", 4);
  const NodeId o = m.output("y", in);
  CompiledSimulator sim(m);
  EXPECT_THROW(sim.run({}), std::invalid_argument);
  const std::vector<std::int64_t> x{1};
  EXPECT_THROW(sim.run({{o, x}}), std::invalid_argument);
}

TEST(CompiledSim, ScheduleIsSmallerThanFullWalk) {
  const auto stage = build_cic(design::CicSpec{4, 8, 4});
  CompiledSimulator sim(stage.module);
  EXPECT_EQ(sim.period(), 8);
  // The whole point: the schedule fires fewer node-evaluations per period
  // than the interpreted all-nodes-every-tick walk.
  EXPECT_LT(sim.scheduled_ops_per_period(),
            stage.module.size() * static_cast<std::size_t>(sim.period()));
}

/// All 9 stimulus classes against one built stage.
void sweep_stimulus_classes(const Module& m, NodeId in, const fx::Format& fmt,
                            std::size_t len, const std::string& what,
                            std::uint64_t seed) {
  for (int c = 0; c < verify::kNumStimulusClasses; ++c) {
    const auto cls = static_cast<verify::StimulusClass>(c);
    std::mt19937_64 rng(seed + static_cast<std::uint64_t>(c));
    const auto stim = verify::make_stimulus(cls, len, fmt, rng);
    expect_engines_agree(m, in, stim,
                         what + " / " + verify::stimulus_name(cls));
  }
}

TEST(CompiledSim, PaperChainStagesAllStimulusClasses) {
  const auto cfg = decim::paper_chain_config();

  int clock_div = 1;
  int in_bits = cfg.input_format.width;
  for (std::size_t i = 0; i < cfg.cic_stages.size(); ++i) {
    auto spec = cfg.cic_stages[i];
    spec.input_bits = in_bits;
    const auto stage = build_cic(spec, clock_div);
    sweep_stimulus_classes(stage.module, stage.in,
                           fx::Format{spec.input_bits, 0}, 256,
                           "cic stage " + std::to_string(i), 0xC1C0 + i);
    clock_div *= spec.decimation;
    in_bits = spec.register_width();
  }

  const auto hbf =
      build_saramaki_hbf(cfg.hbf, cfg.hbf_in_format, cfg.hbf_out_format,
                         cfg.hbf_coeff_frac_bits, 6, 1);
  sweep_stimulus_classes(hbf.module, hbf.in, cfg.hbf_in_format, 256, "hbf",
                         0x4BF);

  const decim::ScalingStage scaler(cfg.scale, cfg.hbf_out_format,
                                   cfg.scaler_out_format, 14, 8);
  const auto sc = build_scaler(scaler.csd(), 14, cfg.hbf_out_format,
                               cfg.scaler_out_format, 1);
  sweep_stimulus_classes(sc.module, sc.in, cfg.hbf_out_format, 256, "scaler",
                         0x5CA1E);

  const auto eq =
      build_symmetric_fir(cfg.equalizer_taps, cfg.equalizer_frac_bits,
                          cfg.scaler_out_format, cfg.output_format, 1);
  sweep_stimulus_classes(eq.module, eq.in, cfg.scaler_out_format, 192,
                         "equalizer", 0xE0);
}

TEST(CompiledSim, FlattenedPaperChainAllStimulusClasses) {
  const auto cfg = decim::paper_chain_config();
  const auto chain = build_chain(cfg);
  EXPECT_EQ(CompiledSimulator(chain.full).period(), 16);
  sweep_stimulus_classes(chain.full, chain.in, cfg.input_format, 512,
                         "full chain", 0xC4A13);
}

TEST(CompiledSim, FuzzSeedsRandomCicConfigs) {
  std::uint64_t seed = 20260807;
  if (const char* env = std::getenv("DSADC_FUZZ_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> order(1, 6);
  std::uniform_int_distribution<int> decim_f(2, 16);
  std::uniform_int_distribution<int> bits(2, 8);
  std::uniform_int_distribution<int> cls(0, verify::kNumStimulusClasses - 1);
  for (int i = 0; i < 8; ++i) {
    const design::CicSpec spec{order(rng), decim_f(rng), bits(rng)};
    const auto stage = build_cic(spec);
    const fx::Format fmt{spec.input_bits, 0};
    const auto stim = verify::make_stimulus(
        static_cast<verify::StimulusClass>(cls(rng)), 192, fmt, rng);
    expect_engines_agree(stage.module, stage.in, stim,
                         "fuzz seed " + std::to_string(seed) + " case " +
                             std::to_string(i));
  }
}

}  // namespace
