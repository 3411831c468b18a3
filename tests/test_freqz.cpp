// Frequency-response helpers: closed-form checks and cascade identities.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <stdexcept>

#include "src/dsp/freqz.h"
#include "src/dsp/spectrum.h"

namespace {

using namespace dsadc::dsp;

TEST(FirResponse, MovingAverageClosedForm) {
  // 4-tap boxcar: |H(f)| = |sin(4 pi f) / (4 sin(pi f))| * 4 (unnormalized).
  const std::vector<double> h{1.0, 1.0, 1.0, 1.0};
  for (double f = 0.01; f < 0.5; f += 0.03) {
    const double expect =
        std::abs(std::sin(4.0 * std::numbers::pi * f) /
                 std::sin(std::numbers::pi * f));
    EXPECT_NEAR(std::abs(fir_response_at(h, f)), expect, 1e-10);
  }
  EXPECT_NEAR(std::abs(fir_response_at(h, 0.0)), 4.0, 1e-12);
}

TEST(FirResponse, LinearPhaseOfSymmetricFilter) {
  const std::vector<double> h{0.25, 0.5, 0.25};
  // Zero-phase part is real after removing the group delay e^{-j2pi f}.
  for (double f = 0.0; f <= 0.5; f += 0.05) {
    const auto resp = fir_response_at(h, f);
    const double w = 2.0 * std::numbers::pi * f;
    const std::complex<double> rot(std::cos(w), std::sin(w));
    EXPECT_NEAR((resp * rot).imag(), 0.0, 1e-12);
  }
}

TEST(RationalResponse, OnePoleMagnitude) {
  const std::vector<double> b{1.0};
  const std::vector<double> a{1.0, -0.9};
  const double m0 = std::abs(rational_response_at(b, a, 0.0));
  EXPECT_NEAR(m0, 10.0, 1e-9);  // 1/(1-0.9)
  const double mhalf = std::abs(rational_response_at(b, a, 0.5));
  EXPECT_NEAR(mhalf, 1.0 / 1.9, 1e-9);
}

TEST(Convolve, MatchesPolynomialProduct) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{-1.0, 1.0};
  const auto c = convolve(a, b);
  const std::vector<double> expect{-1.0, -1.0, -1.0, 3.0};
  ASSERT_EQ(c.size(), expect.size());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], expect[i], 1e-14);
}

TEST(Convolve, CascadeResponseMultiplies) {
  const std::vector<double> a{0.5, 0.5};
  const std::vector<double> b{0.25, 0.5, 0.25};
  const auto c = convolve(a, b);
  for (double f = 0.0; f <= 0.5; f += 0.07) {
    const auto ra = fir_response_at(a, f);
    const auto rb = fir_response_at(b, f);
    const auto rc = fir_response_at(c, f);
    EXPECT_NEAR(std::abs(rc - ra * rb), 0.0, 1e-12);
  }
}

TEST(UpsampleTaps, FrequencyScalingIdentity) {
  // h(z^M) response at f equals h response at M f.
  const std::vector<double> h{0.2, 0.6, 0.2};
  const auto up = upsample_taps(h, 4);
  ASSERT_EQ(up.size(), 9u);
  for (double f = 0.0; f <= 0.124; f += 0.01) {
    EXPECT_NEAR(std::abs(fir_response_at(up, f)),
                std::abs(fir_response_at(h, 4.0 * f)), 1e-12);
  }
}

TEST(UpsampleTaps, EdgeCases) {
  EXPECT_THROW(upsample_taps(std::vector<double>{1.0}, 0), std::invalid_argument);
  const auto same = upsample_taps(std::vector<double>{1.0, 2.0}, 1);
  EXPECT_EQ(same.size(), 2u);
}

TEST(RippleAndAttenuation, FlatFilterIsZeroRipple) {
  const std::vector<double> h{1.0};
  EXPECT_NEAR(passband_ripple_db(h, 0.0, 0.5), 0.0, 1e-12);
  EXPECT_NEAR(min_attenuation_db(h, 0.25, 0.5), 0.0, 1e-12);
}

TEST(RippleAndAttenuation, AveragerNumbers) {
  const std::vector<double> h{0.5, 0.5};  // |H| = cos(pi f)
  // At f = 1/3, attenuation relative to DC = -20 log10(cos(pi/3)) = 6.02.
  const double att = min_attenuation_db(h, 1.0 / 3.0, 1.0 / 3.0 + 1e-6, 8);
  EXPECT_NEAR(att, 6.02, 0.02);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The batched sweep must equal the single-point form at every point, bit
/// for bit.
void expect_pointwise(std::span<const double> h,
                      std::span<const double> freqs) {
  std::vector<double> mags(freqs.size(), -1.0);
  fir_magnitudes(h, freqs, mags);
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    ASSERT_EQ(bits(mags[k]), bits(std::abs(fir_response_at(h, freqs[k]))))
        << h.size() << " taps, point " << k << " of " << freqs.size()
        << ", f = " << freqs[k];
  }
}

TEST(FirMagnitudes, MatchesPointwiseBitForBit) {
  std::mt19937_64 rng(14);
  std::uniform_real_distribution<double> tap(-1.0, 1.0);
  for (std::size_t taps : {0, 1, 7, 8, 9, 415}) {
    std::vector<double> h(taps);
    for (double& v : h) v = tap(rng);
    for (std::size_t n : {0, 1, 7, 9, 2049}) {
      // Points over [-0.75, 0.75): negative and past-Nyquist frequencies
      // included; the first few are pinned to the special values.
      std::vector<double> freqs(n);
      for (std::size_t k = 0; k < n; ++k) {
        freqs[k] = -0.75 + 1.5 * static_cast<double>(k) / static_cast<double>(n);
      }
      const double special[] = {0.0, 0.5, -0.0, -0.3, 0.9, 0.25, 1.0};
      for (std::size_t k = 0; k < std::min(n, std::size(special)); ++k) {
        freqs[k] = special[k];
      }
      expect_pointwise(h, freqs);
    }
  }
}

TEST(FirMagnitudes, MatchesPointwiseOnPaperSizedStopband) {
  std::mt19937_64 rng(111);
  std::uniform_real_distribution<double> tap(-0.1, 0.1);
  std::vector<double> h(111);
  for (double& v : h) v = tap(rng);
  std::vector<double> freqs(2049);
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    freqs[k] = 0.2875 + 0.2125 * static_cast<double>(k) / 2048.0;
  }
  expect_pointwise(h, freqs);
}

TEST(FirMagnitudes, OverflowingTapsTakeThePointwisePath) {
  // Taps near DBL_MAX overflow the accumulator, and the plain complex
  // product formula then yields NaN in both parts: exactly where
  // std::complex recovers the infinities through __muldc3. The sweep
  // must recompute those points, not report NaN.
  const std::vector<double> h(9, 1e308);
  std::vector<double> freqs(64);
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    freqs[k] = 0.5 * static_cast<double>(k) / 64.0;
  }
  // The case is only a test of the fallback if the plain formula does go
  // NaN in both parts somewhere.
  bool plain_nan = false;
  for (double f : freqs) {
    const double w = 2.0 * std::numbers::pi * f;
    const double zr = std::cos(w), zi = -std::sin(w);
    double ar = 0.0, ai = 0.0;
    for (std::size_t i = h.size(); i-- > 0;) {
      const double re = ar * zr - ai * zi;
      const double im = ar * zi + ai * zr;
      ar = re + h[i];
      ai = im;
    }
    plain_nan |= std::isnan(ar) && std::isnan(ai) &&
                 !std::isnan(std::abs(fir_response_at(h, f)));
  }
  ASSERT_TRUE(plain_nan);
  expect_pointwise(h, freqs);
}

TEST(FirMagnitudes, RejectsSizeMismatch) {
  const std::vector<double> h{1.0, 2.0};
  const std::vector<double> freqs{0.1, 0.2};
  std::vector<double> mags(3);
  EXPECT_THROW(fir_magnitudes(h, freqs, mags), std::invalid_argument);
}

TEST(FirMagnitudes, MagnitudeDbMatchesPointwise) {
  const std::vector<double> h{0.25, -0.5, 1.0, -0.5, 0.25, 0.125};
  const std::vector<double> db = fir_magnitude_db(h, 37, 0.45);
  ASSERT_EQ(db.size(), 37u);
  for (std::size_t k = 0; k < db.size(); ++k) {
    const double f = 0.45 * static_cast<double>(k) / 37.0;
    EXPECT_EQ(bits(db[k]), bits(amplitude_db(std::abs(fir_response_at(h, f)))));
  }
}

TEST(RippleAndAttenuation, BandSweepsMatchPointwiseLoops) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> tap(-1.0, 1.0);
  std::vector<double> h(41);
  for (double& v : h) v = tap(rng);
  for (std::size_t n : {2, 3, 8, 9, 2048}) {
    const double f0 = 0.05, f1 = 0.31;
    double lo = 1e300, hi = -1e300;
    for (std::size_t k = 0; k < n; ++k) {
      const double f = f0 + (f1 - f0) * static_cast<double>(k) /
                                static_cast<double>(n - 1);
      const double m = amplitude_db(std::abs(fir_response_at(h, f)));
      lo = std::min(lo, m);
      hi = std::max(hi, m);
    }
    EXPECT_EQ(bits(passband_ripple_db(h, f0, f1, n)), bits(hi - lo)) << n;
    EXPECT_EQ(bits(max_magnitude_db(h, f0, f1, n)), bits(hi)) << n;
    const double dc = amplitude_db(std::abs(fir_response_at(h, 0.0)));
    EXPECT_EQ(bits(min_attenuation_db(h, f0, f1, n)), bits(dc - hi)) << n;
  }
}

TEST(RippleAndAttenuation, DegenerateGridsThrow) {
  // One point would divide the band by n - 1 = 0 and return NaN.
  const std::vector<double> h{0.5, 0.5};
  for (std::size_t n : {0, 1}) {
    EXPECT_THROW(passband_ripple_db(h, 0.0, 0.2, n), std::invalid_argument);
    EXPECT_THROW(max_magnitude_db(h, 0.3, 0.5, n), std::invalid_argument);
    EXPECT_THROW(min_attenuation_db(h, 0.3, 0.5, n), std::invalid_argument);
  }
}

TEST(IsSymmetric, DetectsBothCases) {
  EXPECT_TRUE(is_symmetric(std::vector<double>{1.0, 2.0, 1.0}));
  EXPECT_TRUE(is_symmetric(std::vector<double>{1.0, 2.0, 2.0, 1.0}));
  EXPECT_FALSE(is_symmetric(std::vector<double>{1.0, 2.0, 1.5}));
  EXPECT_TRUE(is_symmetric(std::vector<double>{}));
}

}  // namespace
