// Integration tests for the assembled decimation chain: rates, probes,
// amplitude bookkeeping and a (shortened) end-to-end SNR check against the
// paper's 14-bit / 86 dB target.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <span>
#include <string>

#include "src/decimator/chain.h"
#include "src/dsp/spectrum.h"
#include "src/modulator/dsm.h"
#include "src/modulator/ntf.h"
#include "src/modulator/realize.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/runtime/multichannel.h"
#include "src/verify/stimulus.h"
#include "tests/push_chain.h"

namespace {

using namespace dsadc;

class ChainTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg_ = new decim::ChainConfig(decim::paper_chain_config());
    const auto ntf = mod::synthesize_ntf(5, 16.0, 3.0, true);
    coeffs_ = new mod::CiffCoeffs(mod::realize_ciff(ntf));
  }
  static void TearDownTestSuite() {
    delete cfg_;
    delete coeffs_;
  }
  static mod::DsmOutput run_modulator(std::size_t n, double amp) {
    mod::CiffModulator m(*coeffs_, 4);
    const auto u = mod::coherent_sine(n, 5e6, 640e6, amp, nullptr);
    return m.run(u);
  }
  static decim::ChainConfig* cfg_;
  static mod::CiffCoeffs* coeffs_;
};

decim::ChainConfig* ChainTest::cfg_ = nullptr;
mod::CiffCoeffs* ChainTest::coeffs_ = nullptr;

using testutil::fx_snapshot;
using testutil::PushChain;

TEST_F(ChainTest, RatesAndDecimation) {
  decim::DecimationChain chain(*cfg_);
  EXPECT_EQ(chain.total_decimation(), 16u);
  EXPECT_NEAR(chain.output_rate_hz(), 40e6, 1.0);
  EXPECT_GT(chain.group_delay_input_samples(), 400u);
  EXPECT_LT(chain.group_delay_input_samples(), 1500u);
}

TEST_F(ChainTest, OutputCountAndProbeLayout) {
  decim::DecimationChain chain(*cfg_);
  const auto dsm = run_modulator(1 << 13, 0.5);
  std::vector<decim::StageProbe> probes;
  const auto out = chain.process(dsm.codes, &probes);
  EXPECT_EQ(out.size(), (std::size_t{1} << 13) / 16);
  ASSERT_EQ(probes.size(), 7u);
  EXPECT_EQ(probes[0].name, "input");
  EXPECT_EQ(probes.back().name, "equalizer");
  // Rates halve through the chain.
  EXPECT_NEAR(probes[0].rate_hz, 640e6, 1.0);
  EXPECT_NEAR(probes[3].rate_hz, 80e6, 1.0);
  EXPECT_NEAR(probes[4].rate_hz, 40e6, 1.0);
}

TEST_F(ChainTest, NoSaturationAtMsa) {
  decim::DecimationChain chain(*cfg_);
  const auto dsm = run_modulator(1 << 14, 0.81);
  const auto out = chain.process(dsm.codes);
  const std::int64_t rail = cfg_->output_format.raw_max();
  std::size_t at_rail = 0;
  for (std::int64_t v : out) {
    if (v >= rail || v <= -rail - 1) ++at_rail;
  }
  EXPECT_EQ(at_rail, 0u);
}

// In-MSA stimuli never clip: the formats carry Hogenauer-style guard bits
// and the scaler maps the MSA peak below full scale, so the per-site
// fx.saturate.* counters must all stay at zero.
TEST_F(ChainTest, SaturationCountersZeroAtMsa) {
  if (!obs::kCompiledOn) GTEST_SKIP() << "instrumentation compiled out";
  obs::set_enabled(true);
  auto& reg = obs::Registry::instance();
  reg.reset_all();
  decim::DecimationChain chain(*cfg_);
  const auto dsm = run_modulator(1 << 14, 0.81);
  chain.process(dsm.codes);
  EXPECT_EQ(reg.counter_total("fx.saturate."), 0u);
  // The instrumentation was live: rounding work was counted.
  EXPECT_GT(reg.counter_total("fx.round."), 0u);
  EXPECT_GT(reg.counter_total("chain.samples."), 0u);
}

// An overload ramp drives the signal past the +-MSA full scale the scaler
// was designed for; the saturating output stages must clip (and count it).
// The ramp's tone frequency is drawn from (0.001, 0.2) cycles/sample, so
// some seeds land in the stopband and get filtered before they can clip --
// sweep a handful of seeds and require that the in-band ones saturate.
TEST_F(ChainTest, OverloadRampTripsSaturationCounters) {
  if (!obs::kCompiledOn) GTEST_SKIP() << "instrumentation compiled out";
  obs::set_enabled(true);
  auto& reg = obs::Registry::instance();
  reg.reset_all();
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    decim::DecimationChain chain(*cfg_);
    std::mt19937_64 rng(seed);
    const std::vector<std::int64_t> raw = verify::make_stimulus(
        verify::StimulusClass::kOverloadRamp, 1 << 14, cfg_->input_format,
        rng);
    std::vector<std::int32_t> codes(raw.begin(), raw.end());
    chain.process(codes);
    if (reg.counter_total("fx.saturate.") > 0) break;
  }
  EXPECT_GT(reg.counter_total("fx.saturate."), 0u);
}

TEST_F(ChainTest, FullScaleMappingNearOne) {
  decim::DecimationChain chain(*cfg_);
  const auto dsm = run_modulator(1 << 14, 0.81);
  const auto out = chain.process_to_real(dsm.codes);
  double peak = 0.0;
  for (std::size_t i = 256; i < out.size(); ++i) {
    peak = std::max(peak, std::abs(out[i]));
  }
  // Scaling restores the MSA signal to most of the +-1 range.
  EXPECT_GT(peak, 0.85);
  EXPECT_LT(peak, 1.0);
}

TEST_F(ChainTest, EndToEndSnrNearArithmeticCap) {
  decim::DecimationChain chain(*cfg_);
  const auto dsm = run_modulator(1 << 16, 0.81);
  ASSERT_TRUE(dsm.stable);
  const auto out = chain.process_to_real(dsm.codes);
  std::vector<double> steady(out.begin() + 512, out.end());
  const auto snr = dsp::measure_tone_snr(steady, 40e6, 20e6,
                                         dsp::WindowKind::kKaiser, 8, 8, 22.0);
  // 14-bit output at ~0.95 FS caps the measurable SNR around 85 dB; the
  // paper's target resolution is 14 bits (86 dB nominal).
  EXPECT_GT(snr.snr_db, 82.0);
  EXPECT_GT(snr.enob_bits, 13.3);
}

TEST_F(ChainTest, WideOutputShowsFilterMargin) {
  // With the final 14-bit rounding removed, the chain itself preserves
  // more than the 86 dB the spec requires of the filtering.
  decim::ChainConfig wide = *cfg_;
  wide.output_format = fx::Format{20, 18};
  wide.scaler_out_format = fx::Format{22, 19};
  decim::DecimationChain chain(wide);
  const auto dsm = run_modulator(1 << 16, 0.81);
  std::vector<std::int64_t> raw = chain.process(dsm.codes);
  std::vector<double> x;
  for (std::size_t i = 512; i < raw.size(); ++i) {
    x.push_back(fx::to_double(raw[i], wide.output_format));
  }
  const auto snr = dsp::measure_tone_snr(x, 40e6, 20e6,
                                         dsp::WindowKind::kKaiser, 8, 8, 22.0);
  EXPECT_GT(snr.snr_db, 88.0);
}

TEST_F(ChainTest, ResetMakesRunsIdentical) {
  decim::DecimationChain chain(*cfg_);
  const auto dsm = run_modulator(1 << 12, 0.6);
  const auto a = chain.process(dsm.codes);
  chain.reset();
  const auto b = chain.process(dsm.codes);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_F(ChainTest, DcInputMapsThroughGainChain) {
  decim::DecimationChain chain(*cfg_);
  // Constant code 4 at the input: output = 4 * scale (in code units).
  std::vector<std::int32_t> codes(1 << 12, 4);
  const auto out = chain.process_to_real(codes);
  // The equalizer's DC gain deviates from 1 by its equiripple delta.
  const double expect = 4.0 * cfg_->scale;
  EXPECT_NEAR(out.back(), expect, 0.08 * expect);
}

TEST_F(ChainTest, BlockSplitInvariance) {
  // Streaming: processing in arbitrary chunks equals one-shot processing
  // (all stages carry state across process() calls).
  const auto dsm = run_modulator(1 << 12, 0.6);
  decim::DecimationChain one(*cfg_);
  const auto ref = one.process(dsm.codes);
  decim::DecimationChain chunked(*cfg_);
  std::vector<std::int64_t> got;
  std::size_t pos = 0;
  for (std::size_t chunk : {311, 1024, 17, 1500, 1244}) {
    std::vector<std::int32_t> part(dsm.codes.begin() + pos,
                                   dsm.codes.begin() + pos + chunk);
    const auto out = chunked.process(part);
    got.insert(got.end(), out.begin(), out.end());
    pos += chunk;
  }
  ASSERT_EQ(pos, dsm.codes.size());
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got[i], ref[i]) << i;
  }
}

// The block kernels tally fx events per block; the totals must equal the
// per-hit counts of the push() references, for every site, whatever the
// block split -- on the paper config and on one that saturates.
TEST_F(ChainTest, BlockCountersMatchPushReference) {
  if (!obs::kCompiledOn) GTEST_SKIP() << "instrumentation compiled out";
  obs::set_enabled(true);
  auto& reg = obs::Registry::instance();
  decim::ChainConfig loud = *cfg_;
  loud.scale *= 4.0;
  const auto dsm = run_modulator(1 << 13, 0.81);
  for (const decim::ChainConfig* cfg : {cfg_, &loud}) {
    reg.reset_all();
    PushChain ref(*cfg);
    const auto want = ref.process(dsm.codes);
    const auto want_fx = fx_snapshot();
    EXPECT_GT(reg.counter_total("fx.round."), 0u);
    if (cfg == &loud) {
      EXPECT_GT(reg.counter_total("fx.saturate."), 0u);
    }
    for (const std::size_t block : {1u, 7u, 256u, 4096u}) {
      reg.reset_all();
      decim::DecimationChain chain(*cfg);
      std::vector<std::int64_t> got;
      for (std::size_t pos = 0; pos < dsm.codes.size(); pos += block) {
        const std::size_t n = std::min(block, dsm.codes.size() - pos);
        const auto out = chain.process(
            std::span<const std::int32_t>(dsm.codes).subspan(pos, n));
        got.insert(got.end(), out.begin(), out.end());
      }
      EXPECT_EQ(got, want) << "block " << block;
      EXPECT_EQ(fx_snapshot(), want_fx) << "block " << block;
    }
  }
}

// DecimationChain, a 1-lane bank and a 5-lane bank all run the bank
// kernels (the first two through the width-1 instantiation); every lane
// must match its own push() reference, samples and per-site fx counters,
// whatever the block split.
TEST_F(ChainTest, BankWidthsMatchPushReferenceAcrossSplits) {
  if (!obs::kCompiledOn) GTEST_SKIP() << "instrumentation compiled out";
  obs::set_enabled(true);
  auto& reg = obs::Registry::instance();
  decim::ChainConfig loud = *cfg_;
  loud.scale *= 4.0;
  const auto dsm = run_modulator(1 << 13, 0.81);
  const std::size_t n = dsm.codes.size();
  for (const decim::ChainConfig* cfg : {cfg_, &loud}) {
    for (const std::size_t lanes : {1u, 5u}) {
      // Lane l streams the modulator output rotated by l * 1001 codes.
      std::vector<std::vector<std::int32_t>> codes(lanes);
      std::vector<std::vector<std::int64_t>> in(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        codes[l].resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          codes[l][i] = dsm.codes[(i + l * 1001) % n];
        }
        in[l].assign(codes[l].begin(), codes[l].end());
      }
      reg.reset_all();
      std::vector<std::vector<std::int64_t>> want(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        want[l] = PushChain(*cfg).process(codes[l]);
      }
      const auto want_fx = fx_snapshot();
      for (const std::size_t block : {1u, 7u, 256u, 4096u}) {
        reg.reset_all();
        decim::ChainBank bank(*cfg, lanes);
        const auto got = testutil::run_bank(bank, in, block);
        EXPECT_EQ(got, want) << lanes << " lanes, block " << block;
        EXPECT_EQ(fx_snapshot(), want_fx)
            << lanes << " lanes, block " << block;
      }
    }
  }
}

// hbf_coeff_frac_bits = 65 puts the HBF product requantize at a 63-bit
// shift. Both chain forms refuse it when they are built, not per block.
TEST(ChainConfig, RequantShiftOutOfRangeRefusedByBothForms) {
  auto cfg = decim::paper_chain_config();
  cfg.hbf_coeff_frac_bits = 65;
  EXPECT_THROW(decim::DecimationChain{cfg}, std::invalid_argument);
  EXPECT_THROW(runtime::ChainBank(cfg, 4), std::invalid_argument);
}

TEST(ChainConfig, PaperDefaultsSane) {
  const auto cfg = decim::paper_chain_config();
  EXPECT_EQ(cfg.cic_stages.size(), 3u);
  EXPECT_EQ(cfg.hbf.order(), 110u);
  EXPECT_EQ(cfg.equalizer_taps.size(), 65u);
  EXPECT_EQ(cfg.output_format.width, 14);
  EXPECT_NEAR(cfg.input_rate_hz, 640e6, 1.0);
  EXPECT_GT(cfg.scale, 0.1);
  EXPECT_LT(cfg.scale, 0.2);
}

TEST(ChainConfig, NonPowerOfTwoGainRejected) {
  auto cfg = decim::paper_chain_config();
  cfg.cic_stages[0].decimation = 3;  // gain 3^4 is not a power of two
  EXPECT_THROW(decim::DecimationChain{cfg}, std::invalid_argument);
}

}  // namespace
