// Fixed-point FIR machinery: FixedTaps, FirDecimator vs direct
// convolution, and the polyphase half-band specialization's bit-exact
// agreement with the generic path.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "src/decimator/fir.h"
#include "src/filterdesign/halfband.h"
#include "src/obs/obs.h"
#include "tests/push_chain.h"

namespace {

using namespace dsadc;
using decim::FirDecimator;
using decim::FixedTaps;
using decim::PolyphaseHalfbandDecimator;

std::vector<std::int64_t> random_samples(std::size_t n, int bits, unsigned s) {
  std::mt19937 rng(s);
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  std::uniform_int_distribution<std::int64_t> dist(-hi, hi);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(FixedTaps, RoundTripWithinLsb) {
  const std::vector<double> taps{0.1, -0.25, 0.0317, 0.9999};
  const FixedTaps ft = FixedTaps::from_real(taps, 12);
  const auto back = ft.to_real();
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_LE(std::abs(back[i] - taps[i]), std::ldexp(0.5, -12) + 1e-15);
  }
  EXPECT_THROW(FixedTaps::from_real(taps, -1), std::invalid_argument);
}

TEST(FirDecimator, MatchesDirectConvolution) {
  const std::vector<double> taps{0.25, 0.5, 0.25, -0.125};
  const FixedTaps ft = FixedTaps::from_real(taps, 10);
  FirDecimator fir(ft, 1, fx::Format{12, 0}, fx::Format{24, 10});
  const auto in = random_samples(256, 12, 5);
  const auto out = fir.process(in);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t n = 0; n < in.size(); ++n) {
    std::int64_t acc = 0;
    for (std::size_t k = 0; k < ft.size() && k <= n; ++k) {
      acc += ft.taps[k] * in[n - k];
    }
    // Output format keeps all fractional bits -> exact.
    EXPECT_EQ(out[n], acc) << n;
  }
}

TEST(FirDecimator, DecimationPhase) {
  // Identity filter with decimation 4: keeps samples 0, 4, 8, ...
  FirDecimator fir(FixedTaps{{1}, 0}, 4, fx::Format{8, 0}, fx::Format{8, 0});
  std::vector<std::int64_t> in{10, 11, 12, 13, 14, 15, 16, 17, 18};
  const auto out = fir.process(in);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 14);
  EXPECT_EQ(out[2], 18);
}

TEST(FirDecimator, OutputRoundingAndSaturation) {
  // Gain-2 filter saturates an almost-full-scale input in a narrow output.
  FirDecimator fir(FixedTaps{{2}, 0}, 1, fx::Format{8, 0}, fx::Format{8, 0});
  std::int64_t y = 0;
  ASSERT_TRUE(fir.push(100, y));
  EXPECT_EQ(y, 127);  // saturated
  FirDecimator fir2(FixedTaps{{1}, 1}, 1, fx::Format{8, 0}, fx::Format{8, 0});
  ASSERT_TRUE(fir2.push(5, y));  // 5 * 0.5 = 2.5 -> rounds to 3
  EXPECT_EQ(y, 3);
}

TEST(FirDecimator, RejectsBadArgs) {
  EXPECT_THROW(FirDecimator(FixedTaps{{}, 0}, 1, fx::Format{8, 0},
                            fx::Format{8, 0}),
               std::invalid_argument);
  EXPECT_THROW(FirDecimator(FixedTaps{{1}, 0}, 0, fx::Format{8, 0},
                            fx::Format{8, 0}),
               std::invalid_argument);
}

TEST(FirDecimator, RejectsNonFiniteTapsAndAccumulatorsPast62Bits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, 1e30}) {
    const std::vector<double> taps = {0.25, bad, 0.25};
    EXPECT_THROW(FixedTaps::from_real(taps, 14), std::invalid_argument);
  }
  // (in_width - 1) + bit_width(sum |t|) <= 62: 18-bit samples leave 45
  // bits of tap magnitude, in either form of the stage.
  const fx::Format in{18, 15};
  const fx::Format out{14, 13};
  const FixedTaps fits{{std::int64_t{1} << 43, std::int64_t{1} << 43}, 14};
  const FixedTaps wide{{std::int64_t{1} << 44, std::int64_t{1} << 44}, 14};
  EXPECT_EQ(decim::mac_bits(in.width, fits.taps), 62);
  EXPECT_NO_THROW(FirDecimator(fits, 1, in, out));
  EXPECT_NO_THROW(decim::FirDecimatorBank(fits, 1, 4, in, out));
  EXPECT_THROW(FirDecimator(wide, 1, in, out), std::invalid_argument);
  EXPECT_THROW(decim::FirDecimatorBank(wide, 1, 4, in, out),
               std::invalid_argument);
  const FixedTaps most_negative{{INT64_MIN}, 0};
  EXPECT_THROW(FirDecimator(most_negative, 1, in, out), std::invalid_argument);
}

class PolyphaseVsDirect : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PolyphaseVsDirect, BitIdenticalToGenericFir) {
  const std::size_t j = GetParam();
  const auto hb = design::design_halfband(j, 0.21);
  const FixedTaps ft = FixedTaps::from_real(hb.taps, 16);
  const fx::Format in_fmt{14, 0}, out_fmt{14, 0};
  FirDecimator generic(ft, 2, in_fmt, out_fmt);
  PolyphaseHalfbandDecimator poly(ft, in_fmt, out_fmt);
  const auto in = random_samples(1024, 14, static_cast<unsigned>(j));
  const auto a = generic.process(in);
  const auto b = poly.process(in);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "output " << i << " (J=" << j << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, PolyphaseVsDirect,
                         ::testing::Values(3, 4, 8, 16, 28));

TEST(Polyphase, MacSavings) {
  const auto hb = design::design_halfband(8, 0.21);
  const FixedTaps ft = FixedTaps::from_real(hb.taps, 16);
  PolyphaseHalfbandDecimator poly(ft, fx::Format{14, 0}, fx::Format{14, 0});
  // 31 taps total, 16 nonzero even-branch + 1 center: about half the MACs.
  EXPECT_LE(poly.macs_per_output(), ft.size() / 2 + 2);
}

TEST(Polyphase, RejectsNonHalfband) {
  // Wrong length.
  EXPECT_THROW(PolyphaseHalfbandDecimator(FixedTaps{{1, 2, 3, 4}, 4},
                                          fx::Format{8, 0}, fx::Format{8, 0}),
               std::invalid_argument);
  // Right length, nonzero even-offset tap.
  FixedTaps bad = FixedTaps::from_real(design::design_halfband(3, 0.2).taps, 12);
  bad.taps[0] = bad.taps[0] ? bad.taps[0] : 1;
  bad.taps[1] = 99;  // offset 4 from center (even) - violates structure
  EXPECT_THROW(PolyphaseHalfbandDecimator(bad, fx::Format{8, 0},
                                          fx::Format{8, 0}),
               std::invalid_argument);
}

// FirDecimatorBank is the stage's block form (DecimationChain runs it at
// one lane). At 1 and 3 lanes and decimations 1 and 3, every lane must
// equal push() -- samples and the fir_out fx counters -- whatever the
// block split, with taps loud enough to saturate.
TEST(FirDecimatorBank, LanesMatchPushForAnyBlockSplit) {
  if (!obs::kCompiledOn) GTEST_SKIP() << "instrumentation compiled out";
  obs::set_enabled(true);
  auto& reg = obs::Registry::instance();
  const std::vector<double> taps{0.3, -0.7, 1.9, 2.6, 1.9, -0.7, 0.3};
  const FixedTaps ft = FixedTaps::from_real(taps, 10);
  const fx::Format in_fmt{12, 0};
  const fx::Format out_fmt{12, 0};
  for (const int decimation : {1, 3}) {
    for (const std::size_t lanes : {1u, 3u}) {
      std::vector<std::vector<std::int64_t>> in;
      for (std::size_t l = 0; l < lanes; ++l) {
        in.push_back(random_samples(4099, 12, static_cast<unsigned>(40 + l)));
      }
      reg.reset_all();
      std::vector<std::vector<std::int64_t>> want(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        FirDecimator ref(ft, decimation, in_fmt, out_fmt);
        std::int64_t y = 0;
        for (const std::int64_t x : in[l]) {
          if (ref.push(x, y)) want[l].push_back(y);
        }
      }
      const auto want_fx = testutil::fx_snapshot();
      EXPECT_GT(reg.counter("fx.saturate.fir_out").value(), 0u);
      for (const std::size_t block : {1u, 7u, 256u, 4096u}) {
        reg.reset_all();
        decim::FirDecimatorBank bank(ft, decimation, lanes, in_fmt, out_fmt);
        EXPECT_EQ(testutil::run_bank(bank, in, block), want)
            << "M=" << decimation << ", " << lanes << " lanes, block "
            << block;
        EXPECT_EQ(testutil::fx_snapshot(), want_fx)
            << "M=" << decimation << ", " << lanes << " lanes, block "
            << block;
      }
    }
  }
}

TEST(FirDecimator, ResetClearsHistory) {
  const std::vector<double> halves{0.5, 0.5};
  const FixedTaps ft = FixedTaps::from_real(halves, 8);
  FirDecimator fir(ft, 1, fx::Format{10, 0}, fx::Format{20, 8});
  const auto in = random_samples(64, 10, 9);
  const auto a = fir.process(in);
  fir.reset();
  const auto b = fir.process(in);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

}  // namespace
