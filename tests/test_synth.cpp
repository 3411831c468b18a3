// Synthesis cost model: cell mapping, activity-driven power behaviour and
// the per-stage chain profile (Table II machinery).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "src/core/flow.h"
#include "src/decimator/chain.h"
#include "src/modulator/dsm.h"
#include "src/modulator/ntf.h"
#include "src/modulator/realize.h"
#include "src/rtl/builders.h"
#include "src/rtl/sim.h"
#include "src/synth/estimate.h"

namespace {

using namespace dsadc;

std::vector<std::int64_t> random_samples(std::size_t n, int bits, unsigned s) {
  std::mt19937 rng(s);
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  std::uniform_int_distribution<std::int64_t> dist(-hi, hi);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(MapCells, CountsMatchModule) {
  rtl::Module m("t");
  const auto a = m.input("a", 8);
  const auto b = m.input("b", 8);
  const auto s = m.add(a, b, 9);
  const auto r = m.reg(s);
  (void)m.output("y", r);
  const auto c = synth::map_cells(m);
  EXPECT_EQ(c.adders, 1u);
  EXPECT_EQ(c.adder_bits, 9u);
  EXPECT_EQ(c.registers, 1u);
  EXPECT_EQ(c.register_bits, 9u);
}

TEST(EstimateArea, ScalesWithCells) {
  const auto lib = synth::default_45nm();
  const auto small = rtl::build_cic(design::CicSpec{2, 2, 4});
  const auto big = rtl::build_cic(design::CicSpec{6, 2, 12});
  const auto ea = synth::estimate_area(small.module, lib);
  const auto eb = synth::estimate_area(big.module, lib);
  EXPECT_GT(eb.area_mm2, ea.area_mm2);
  EXPECT_GT(eb.leakage_power_w, ea.leakage_power_w);
  EXPECT_GT(ea.area_mm2, 0.0);
}

TEST(Estimate, MoreActivityMorePower) {
  const auto lib = synth::default_45nm();
  const auto stage = rtl::build_cic(design::CicSpec{4, 2, 8});
  rtl::Simulator sim(stage.module);
  const auto quiet = std::vector<std::int64_t>(2048, 0);
  auto busy = random_samples(2048, 8, 3);
  const auto rq = sim.run({{stage.in, quiet}});
  const auto rb = sim.run({{stage.in, busy}});
  const auto eq = synth::estimate(stage.module, rq.activity, 640e6, lib, {});
  const auto eb = synth::estimate(stage.module, rb.activity, 640e6, lib, {});
  EXPECT_GT(eb.dynamic_power_w, eq.dynamic_power_w);
  // Even a quiet stage pays clock power.
  EXPECT_GT(eq.dynamic_power_w, 0.0);
}

TEST(Estimate, PowerScalesWithClockRate) {
  const auto lib = synth::default_45nm();
  const auto stage = rtl::build_cic(design::CicSpec{4, 2, 8});
  rtl::Simulator sim(stage.module);
  const auto in = random_samples(2048, 8, 5);
  const auto res = sim.run({{stage.in, in}});
  const auto fast = synth::estimate(stage.module, res.activity, 640e6, lib, {});
  const auto slow = synth::estimate(stage.module, res.activity, 40e6, lib, {});
  EXPECT_NEAR(fast.dynamic_power_w / slow.dynamic_power_w, 16.0, 0.01);
}

TEST(Estimate, RetimingReducesAdderPower) {
  const auto lib = synth::default_45nm();
  const auto stage = rtl::build_cic(design::CicSpec{4, 2, 8});
  rtl::Simulator sim(stage.module);
  const auto in = random_samples(2048, 8, 7);
  const auto res = sim.run({{stage.in, in}});
  rtl::BuildOptions retimed;
  retimed.retimed = true;
  rtl::BuildOptions glitchy;
  glitchy.retimed = false;
  const auto a = synth::estimate(stage.module, res.activity, 640e6, lib, retimed);
  const auto b = synth::estimate(stage.module, res.activity, 640e6, lib, glitchy);
  EXPECT_GT(b.dynamic_power_w, a.dynamic_power_w);
}

TEST(Estimate, MismatchedActivityThrows) {
  const auto lib = synth::default_45nm();
  const auto stage = rtl::build_cic(design::CicSpec{4, 2, 8});
  rtl::Activity bad;
  bad.bit_toggles.assign(3, 0);
  bad.updates.assign(3, 0);
  bad.base_ticks = 10;
  EXPECT_THROW(synth::estimate(stage.module, bad, 640e6, lib, {}),
               std::invalid_argument);
}

class ChainProfile : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto ntf = mod::synthesize_ntf(5, 16.0, 3.0, true);
    const auto coeffs = mod::realize_ciff(ntf);
    mod::CiffModulator m(coeffs, 4);
    const auto u = mod::coherent_sine(1 << 13, 5e6, 640e6, 0.81, nullptr);
    codes_ = new std::vector<std::int32_t>(m.run(u).codes);
    profile_ = new synth::PowerProfile(synth::profile_chain(
        decim::paper_chain_config(), *codes_, 640e6, synth::default_45nm(),
        {}));
  }
  static void TearDownTestSuite() {
    delete codes_;
    delete profile_;
  }
  static std::vector<std::int32_t>* codes_;
  static synth::PowerProfile* profile_;
};

std::vector<std::int32_t>* ChainProfile::codes_ = nullptr;
synth::PowerProfile* ChainProfile::profile_ = nullptr;

TEST_F(ChainProfile, SixStagesNamed) {
  ASSERT_EQ(profile_->stages.size(), 6u);
  EXPECT_EQ(profile_->stages[0].name, "sinc4_1");
  EXPECT_EQ(profile_->stages[1].name, "sinc4_2");
  EXPECT_EQ(profile_->stages[2].name, "sinc6_3");
  EXPECT_EQ(profile_->stages[3].name, "halfband");
  EXPECT_EQ(profile_->stages[4].name, "scaler");
  EXPECT_EQ(profile_->stages[5].name, "equalizer");
}

TEST_F(ChainProfile, TableTwoShape) {
  // The distribution the paper reports: the 640 MHz first Sinc stage is
  // the largest dynamic consumer; the halfband is a mid-pack consumer;
  // the scaler is the smallest; leakage is dominated by the coefficient-
  // heavy halfband + equalizer.
  const auto& s = profile_->stages;
  for (std::size_t i = 1; i < s.size(); ++i) {
    EXPECT_GT(s[0].dynamic_power_w, s[i].dynamic_power_w) << s[i].name;
  }
  EXPECT_LT(s[4].dynamic_power_w, 0.2 * s[0].dynamic_power_w);
  EXPECT_GT(s[3].leakage_power_w + s[5].leakage_power_w,
            0.5 * profile_->total_leakage_w);
}

TEST_F(ChainProfile, TotalsInPaperBallpark) {
  // Order-of-magnitude agreement with Table II / Fig. 12: mW-scale
  // dynamic power, sub-mW leakage, ~0.1 mm^2 area.
  EXPECT_GT(profile_->total_dynamic_w, 1e-3);
  EXPECT_LT(profile_->total_dynamic_w, 50e-3);
  EXPECT_GT(profile_->total_leakage_w, 0.1e-3);
  EXPECT_LT(profile_->total_leakage_w, 5e-3);
  EXPECT_GT(profile_->total_area_mm2, 0.02);
  EXPECT_LT(profile_->total_area_mm2, 1.0);
}

TEST_F(ChainProfile, DecimatedStagesCheaperPerOp) {
  // Sinc stages get cheaper down the chain despite growing widths,
  // because the clock rate halves.
  const auto& s = profile_->stages;
  EXPECT_GT(s[0].dynamic_power_w, s[1].dynamic_power_w);
  EXPECT_GT(s[1].dynamic_power_w, s[2].dynamic_power_w);
}

// Reference profile: the same per-stage streams as profile_chain, with
// each stage's activity taken from the interpreted rtl::Simulator.
std::vector<synth::Estimate> interpreted_profile(
    const decim::ChainConfig& config, const std::vector<std::int32_t>& codes,
    double base_clock_hz, const synth::CellLibrary& lib) {
  decim::DecimationChain chain(config);
  std::vector<decim::StageProbe> probes;
  (void)chain.process(codes, &probes);
  const rtl::BuiltChain built = rtl::build_chain(config, {});
  int gain_log2 = 0;
  for (const auto& s : config.cic_stages) {
    gain_log2 += s.order * static_cast<int>(std::log2(s.decimation));
  }
  std::vector<synth::Estimate> out;
  for (std::size_t i = 0; i < built.stages.size(); ++i) {
    std::vector<std::int64_t> stream = probes[i].samples;
    if (built.stage_names[i] == "halfband") {
      for (auto& v : stream) {
        v = fx::requantize(v, gain_log2, config.hbf_in_format,
                           fx::Rounding::kRoundNearest,
                           fx::Overflow::kSaturate);
      }
    }
    rtl::Simulator sim(built.stages[i].module);
    const auto run = sim.run({{built.stages[i].in, stream}});
    out.push_back(synth::estimate(built.stages[i].module, run.activity,
                                  base_clock_hz, lib, {}));
  }
  return out;
}

void expect_profile_matches_interpreted(const decim::ChainConfig& config,
                                        const std::vector<std::int32_t>& codes,
                                        double base_clock_hz) {
  const auto lib = synth::default_45nm();
  const synth::PowerProfile got =
      synth::profile_chain(config, codes, base_clock_hz, lib, {});
  const auto want = interpreted_profile(config, codes, base_clock_hz, lib);
  ASSERT_EQ(got.stages.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(got.stages[i].name);
    EXPECT_EQ(got.stages[i].dynamic_power_w, want[i].dynamic_power_w);
    EXPECT_EQ(got.stages[i].leakage_power_w, want[i].leakage_power_w);
    EXPECT_EQ(got.stages[i].area_mm2, want[i].area_mm2);
  }
}

TEST_F(ChainProfile, CompiledMatchesInterpretedReference) {
  expect_profile_matches_interpreted(decim::paper_chain_config(), *codes_,
                                     640e6);
}

// The W-CDMA-like and WiMAX-like flow chains: different Sinc orders,
// rates and HBF structures from the paper chain.
TEST(ChainProfileFlow, CompiledMatchesInterpretedReference) {
  mod::ModulatorSpec wcdma;
  wcdma.order = 4;
  wcdma.osr = 32.0;
  wcdma.obg = 2.5;
  wcdma.sample_rate_hz = 320e6;
  wcdma.bandwidth_hz = 5e6;
  wcdma.quantizer_bits = 4;
  wcdma.msa = 0.85;
  mod::DecimatorSpec wcdma_d;
  wcdma_d.input_bits = 4;
  wcdma_d.passband_edge_hz = 5e6;
  wcdma_d.stopband_edge_hz = 5.75e6;
  wcdma_d.output_rate_hz = 10e6;
  wcdma_d.stopband_atten_db = 85.0;

  mod::ModulatorSpec wimax;
  wimax.order = 5;
  wimax.osr = 16.0;
  wimax.obg = 3.0;
  wimax.sample_rate_hz = 320e6;
  wimax.bandwidth_hz = 10e6;
  wimax.quantizer_bits = 4;
  wimax.msa = 0.81;
  mod::DecimatorSpec wimax_d;
  wimax_d.input_bits = 4;
  wimax_d.passband_edge_hz = 10e6;
  wimax_d.stopband_edge_hz = 11.5e6;
  wimax_d.output_rate_hz = 20e6;
  wimax_d.stopband_atten_db = 85.0;

  const std::pair<mod::ModulatorSpec, mod::DecimatorSpec> specs[] = {
      {wcdma, wcdma_d}, {wimax, wimax_d}};
  for (const auto& [m, d] : specs) {
    SCOPED_TRACE(::testing::Message() << "bandwidth " << m.bandwidth_hz);
    const core::FlowResult r = core::DesignFlow::design(m, d);
    // The stimulus DesignFlow::synthesize uses: a tone at the MSA.
    const auto u = mod::coherent_sine(1 << 13, d.passband_edge_hz / 3.0,
                                      m.sample_rate_hz, r.msa, nullptr);
    mod::CiffModulator modulator(r.ciff, m.quantizer_bits);
    expect_profile_matches_interpreted(r.chain, modulator.run(u).codes,
                                       m.sample_rate_hz);
  }
}

}  // namespace
