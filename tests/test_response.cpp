// Composite-response utilities behind Figs. 8-11.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "src/core/response.h"
#include "src/dsp/freqz.h"
#include "src/filterdesign/cic.h"
#include "src/fixedpoint/quantize.h"

namespace {

using namespace dsadc;

class ResponseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg_ = new decim::ChainConfig(decim::paper_chain_config());
  }
  static void TearDownTestSuite() { delete cfg_; }
  static decim::ChainConfig* cfg_;
};

decim::ChainConfig* ResponseTest::cfg_ = nullptr;

TEST_F(ResponseTest, ImpulseAndPointEvaluationsAgree) {
  const auto h = core::composite_impulse_response(*cfg_);
  for (double f_hz : {1e6, 5e6, 15e6, 22e6, 40e6, 100e6}) {
    const double from_taps =
        std::abs(dsp::fir_response_at(h, f_hz / cfg_->input_rate_hz));
    const double direct = core::composite_magnitude(*cfg_, f_hz);
    EXPECT_NEAR(from_taps, direct, 1e-6 * (1.0 + direct)) << f_hz;
  }
}

TEST_F(ResponseTest, CompositeIsLinearPhase) {
  const auto h = core::composite_impulse_response(*cfg_);
  EXPECT_TRUE(dsp::is_symmetric(h, 1e-9));
}

TEST_F(ResponseTest, DcGainNearScale) {
  // All filter stages are unity-gain at DC; the composite DC gain is the
  // scaler constant.
  // The equalizer's equiripple deviation (about +-0.06 for the paper's
  // 65 taps) applies at DC too.
  EXPECT_NEAR(core::composite_magnitude(*cfg_, 0.0), cfg_->scale,
              0.08 * cfg_->scale);
}

TEST_F(ResponseTest, StopbandMeetsTableOne) {
  const double att = core::composite_stopband_atten_db(*cfg_, 23e6);
  EXPECT_GE(att, 85.0);  // Table I: > 85 dB
}

TEST_F(ResponseTest, PassbandRippleWithinTableOne) {
  const double ripple = core::composite_passband_ripple_db(*cfg_, 1e6, 20e6);
  EXPECT_LT(ripple, 1.5);  // 65-tap paper equalizer: ~1 dB (Table I: < 1)
}

TEST_F(ResponseTest, PreEqualizerDroopMatchesPaperFigure10) {
  // Sinc + HBF droop at the band edge: about -10.5 dB (sinc -4.5, HBF -6).
  const double droop20 =
      20.0 * std::log10(core::pre_equalizer_magnitude(*cfg_, 20e6));
  EXPECT_NEAR(droop20, -11.0, 1.5);
  const double droop5 =
      20.0 * std::log10(core::pre_equalizer_magnitude(*cfg_, 5e6));
  EXPECT_GT(droop5, -0.5);
}

TEST_F(ResponseTest, AliasProtectionIdentifiesEdgeLeakage) {
  // The strict all-images metric is limited by the band-edge slots around
  // 80 MHz +- band edge; it must be well below the primary-image figure.
  const double strict = core::composite_alias_protection_db(*cfg_, 17e6, 512);
  const double primary = core::composite_stopband_atten_db(*cfg_, 23e6, 512);
  EXPECT_LT(strict, primary);
  EXPECT_GT(strict, 40.0);
}

TEST_F(ResponseTest, DeepNotchesAtOutputRateImages) {
  // Composite response has Sinc nulls at multiples of 80 MHz.
  for (double f : {80e6, 160e6, 240e6}) {
    EXPECT_LT(core::composite_magnitude(*cfg_, f), 1e-6);
  }
}

// The composite magnitude one point at a time, as the sweeps computed it
// before they were batched: the batched sweeps must match it bit for bit.
double reference_magnitude(const decim::ChainConfig& cfg, double freq_hz) {
  const double f = freq_hz / cfg.input_rate_hz;
  double mag = 1.0;
  double rate = 1.0;
  for (const auto& st : cfg.cic_stages) {
    mag *= design::cic_magnitude(st, f * rate);
    rate *= st.decimation;
  }
  mag *= std::abs(dsp::fir_response_at(cfg.hbf.taps, f * rate));
  rate *= 2.0;
  mag *= fx::csd_encode_limited(cfg.scale, 14, 8).to_double();
  mag *= std::abs(dsp::fir_response_at(
      fx::quantize_taps(cfg.equalizer_taps, cfg.equalizer_frac_bits),
      f * rate));
  return mag;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST_F(ResponseTest, CompositeSweepMatchesPointwise) {
  for (std::size_t n : {0, 1, 7, 8, 9, 1001}) {
    std::vector<double> freqs(n);
    for (std::size_t k = 0; k < n; ++k) {
      freqs[k] = 330e6 * static_cast<double>(k) / static_cast<double>(n) - 5e6;
    }
    const std::vector<double> mags = core::composite_magnitudes(*cfg_, freqs);
    ASSERT_EQ(mags.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(bits(mags[k]), bits(reference_magnitude(*cfg_, freqs[k])))
          << "point " << k << " of " << n;
      ASSERT_EQ(bits(mags[k]), bits(core::composite_magnitude(*cfg_, freqs[k])));
    }
  }
}

TEST_F(ResponseTest, CompositeChecksMatchPointwiseLoops) {
  const decim::ChainConfig& cfg = *cfg_;
  const double fout = 40e6;
  const double dc = reference_magnitude(cfg, 0.0);
  for (std::size_t grid : {1, 7, 512}) {
    // Primary stopband.
    const double fstop = 23e6, f1 = 2.0 * fout - fstop;
    double worst = 1e300;
    for (std::size_t k = 0; k <= grid; ++k) {
      const double f = fstop + (f1 - fstop) * static_cast<double>(k) /
                                   static_cast<double>(grid);
      worst = std::min(worst,
                       -20.0 * std::log10(reference_magnitude(cfg, f) / dc));
    }
    EXPECT_EQ(bits(core::composite_stopband_atten_db(cfg, fstop, grid)),
              bits(worst)) << grid;
    // Every alias image of the protected band.
    const double protect = 17e6;
    worst = 1e300;
    for (int m = 1; m <= 8; ++m) {
      for (std::size_t k = 0; k <= grid; ++k) {
        const double f =
            protect * static_cast<double>(k) / static_cast<double>(grid);
        for (double image : {m * fout - f, m * fout + f}) {
          if (image <= 0.0 || image >= cfg.input_rate_hz / 2.0) continue;
          worst = std::min(
              worst, -20.0 * std::log10(reference_magnitude(cfg, image) / dc));
        }
      }
    }
    EXPECT_EQ(bits(core::composite_alias_protection_db(cfg, protect, grid)),
              bits(worst)) << grid;
    // Passband ripple.
    double lo = 1e300, hi = -1e300;
    for (std::size_t k = 0; k <= grid; ++k) {
      const double f =
          1e6 + (20e6 - 1e6) * static_cast<double>(k) / static_cast<double>(grid);
      const double db = 20.0 * std::log10(reference_magnitude(cfg, f));
      lo = std::min(lo, db);
      hi = std::max(hi, db);
    }
    EXPECT_EQ(bits(core::composite_passband_ripple_db(cfg, 1e6, 20e6, grid)),
              bits(hi - lo)) << grid;
  }
}

TEST_F(ResponseTest, EmptyGridsThrow) {
  // grid == 0 would divide the band by zero and return NaN.
  EXPECT_THROW(core::composite_stopband_atten_db(*cfg_, 23e6, 0),
               std::invalid_argument);
  EXPECT_THROW(core::composite_alias_protection_db(*cfg_, 17e6, 0),
               std::invalid_argument);
  EXPECT_THROW(core::composite_passband_ripple_db(*cfg_, 1e6, 20e6, 0),
               std::invalid_argument);
}

TEST(OutputRate, ConfigMatchesChain) {
  const decim::ChainConfig cfg = decim::paper_chain_config();
  EXPECT_EQ(decim::output_rate_hz(cfg), 40e6);
  EXPECT_EQ(bits(decim::output_rate_hz(cfg)),
            bits(decim::DecimationChain(cfg).output_rate_hz()));
}

}  // namespace
