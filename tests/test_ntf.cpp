// NTF synthesis: optimal zero placement (Legendre roots, Schreier Table
// 4.1), out-of-band gain control, and SQNR prediction trends.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "src/modulator/ntf.h"

namespace {

using namespace dsadc::mod;

TEST(LegendreRoots, KnownValues) {
  // Schreier's optimal relative zero positions are the Legendre roots.
  const auto r5 = legendre_roots(5);
  ASSERT_EQ(r5.size(), 5u);
  EXPECT_NEAR(r5[0], -0.90618, 1e-4);
  EXPECT_NEAR(r5[1], -0.53847, 1e-4);
  EXPECT_NEAR(r5[2], 0.0, 1e-12);
  EXPECT_NEAR(r5[3], 0.53847, 1e-4);
  EXPECT_NEAR(r5[4], 0.90618, 1e-4);

  const auto r2 = legendre_roots(2);
  EXPECT_NEAR(r2[1], 1.0 / std::sqrt(3.0), 1e-10);

  const auto r4 = legendre_roots(4);
  EXPECT_NEAR(r4[2], 0.33998, 1e-4);
  EXPECT_NEAR(r4[3], 0.86114, 1e-4);
}

TEST(LegendreRoots, SymmetricAndSorted) {
  for (int n = 1; n <= 8; ++n) {
    const auto r = legendre_roots(n);
    for (std::size_t i = 0; i + 1 < r.size(); ++i) EXPECT_LT(r[i], r[i + 1]);
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_NEAR(r[i], -r[r.size() - 1 - i], 1e-12);
    }
  }
}

class NtfSynthesis
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {};

TEST_P(NtfSynthesis, HitsRequestedObg) {
  const auto [order, osr, obg] = GetParam();
  const Ntf ntf = synthesize_ntf(order, osr, obg, true);
  EXPECT_NEAR(ntf.infinity_norm(), obg, 0.01 * obg);
  // Realizability: monic numerator/denominator, NTF(inf) = 1.
  EXPECT_NEAR(ntf.numerator()[0], 1.0, 1e-12);
  EXPECT_NEAR(ntf.denominator()[0], 1.0, 1e-12);
  // All poles strictly inside the unit circle.
  for (const auto& p : ntf.poles) EXPECT_LT(std::abs(p), 1.0);
  // All zeros on the unit circle within the band.
  for (const auto& z : ntf.zeros) {
    EXPECT_NEAR(std::abs(z), 1.0, 1e-9);
    EXPECT_LE(std::abs(std::arg(z)), M_PI / osr + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NtfSynthesis,
    ::testing::Values(std::make_tuple(2, 16.0, 2.0),
                      std::make_tuple(3, 32.0, 1.5),
                      std::make_tuple(4, 16.0, 2.5),
                      std::make_tuple(5, 16.0, 3.0),   // the paper's design
                      std::make_tuple(6, 12.0, 4.0),
                      std::make_tuple(7, 8.0, 6.0)));

// Golden bits: synthesize_ntf must reproduce these poles and H-inf norms
// exactly. Any speed-up of the grid scan or of the bisection has to leave
// every bit where it is.
struct NtfGolden {
  int order;
  double osr, obg;
  double norm;
  std::vector<std::complex<double>> poles;
};

TEST(NtfSynthesis, GoldenBits) {
  const NtfGolden golden[] = {
      {5, 16.0, 3.0, 0x1.7ffffffffffffp+1,
       {{0x1.50d9ce3153f0ap-1, -0x1.fb2a45127ae17p-2},
        {0x1.0b42b738218d3p-1, -0x1.f1618212690a9p-3},
        {0x1.ef6d43129ce12p-2, -0x1.b091b6cd71cdcp-55},
        {0x1.0b42b738218d3p-1, 0x1.f1618212690a6p-3},
        {0x1.50d9ce3153f08p-1, 0x1.fb2a45127ae14p-2}}},
      {4, 32.0, 2.5, 0x1.4p+1,
       {{0x1.3ec17d0713deap-1, -0x1.e2858ff9c08cap-2},
        {0x1.f39b041185ad1p-2, -0x1.39438d20a19p-3},
        {0x1.f39b041185ad1p-2, 0x1.39438d20a18fcp-3},
        {0x1.3ec17d0713deap-1, 0x1.e2858ff9c08c5p-2}}},
      {4, 16.0, 2.5, 0x1.4p+1,
       {{0x1.3d4402c784e57p-1, -0x1.e49c264ee0bcbp-2},
        {0x1.f0ce09c13de3ap-2, -0x1.3a53492823d36p-3},
        {0x1.f0ce09c13de3ap-2, 0x1.3a53492823d33p-3},
        {0x1.3d4402c784e55p-1, 0x1.e49c264ee0bc5p-2}}},
  };
  for (const NtfGolden& g : golden) {
    SCOPED_TRACE(::testing::Message() << "order " << g.order << ", OSR "
                                      << g.osr << ", OBG " << g.obg);
    const Ntf ntf = synthesize_ntf(g.order, g.osr, g.obg, true);
    EXPECT_EQ(ntf.infinity_norm(), g.norm);
    ASSERT_EQ(ntf.poles.size(), g.poles.size());
    for (std::size_t i = 0; i < g.poles.size(); ++i) {
      EXPECT_EQ(ntf.poles[i].real(), g.poles[i].real()) << "pole " << i;
      EXPECT_EQ(ntf.poles[i].imag(), g.poles[i].imag()) << "pole " << i;
    }
  }
}

TEST(NtfSynthesis, DeepInBandNulls) {
  const Ntf ntf = synthesize_ntf(5, 16.0, 3.0, true);
  // In-band |NTF| must be tiny; worst in-band well below 1.
  double worst = 0.0;
  for (double f = 0.0; f <= 0.5 / 16.0; f += 1e-4) {
    worst = std::max(worst, ntf.magnitude_at(f));
  }
  EXPECT_LT(worst, 2e-3);
}

TEST(NtfSynthesis, OptimizedZerosBeatDcZeros) {
  const Ntf opt = synthesize_ntf(5, 16.0, 3.0, true);
  const Ntf dc = synthesize_ntf(5, 16.0, 3.0, false);
  EXPECT_LT(opt.inband_noise_power_gain(16.0),
            dc.inband_noise_power_gain(16.0));
}

TEST(NtfSynthesis, InvalidArgsThrow) {
  EXPECT_THROW(synthesize_ntf(0, 16.0, 3.0), std::invalid_argument);
  EXPECT_THROW(synthesize_ntf(9, 16.0, 3.0), std::invalid_argument);
  EXPECT_THROW(synthesize_ntf(5, 16.0, 0.9), std::invalid_argument);
}

TEST(NtfSynthesis, ImpossiblyLowObgThrows) {
  // A 7th-order NTF at high OSR cannot reach Hinf barely above 1.
  EXPECT_THROW(synthesize_ntf(7, 64.0, 1.01), std::runtime_error);
}

TEST(PredictSqnr, PaperBallpark) {
  // The paper's modulator: 5th order, OSR 16, OBG 3, 4-bit quantizer,
  // MSA 0.81 -> simulated 102 dB. The linear prediction for the DT
  // equivalent sits in the same region (roughly 100-115 dB).
  const Ntf ntf = synthesize_ntf(5, 16.0, 3.0, true);
  const double sqnr = predict_sqnr_db(ntf, 16.0, 4, 0.81);
  EXPECT_GT(sqnr, 95.0);
  EXPECT_LT(sqnr, 120.0);
}

TEST(PredictSqnr, MonotoneInOsrAndBits) {
  const Ntf ntf = synthesize_ntf(4, 16.0, 2.5, true);
  EXPECT_GT(predict_sqnr_db(ntf, 32.0, 4, 0.8),
            predict_sqnr_db(ntf, 16.0, 4, 0.8));
  EXPECT_GT(predict_sqnr_db(ntf, 16.0, 5, 0.8),
            predict_sqnr_db(ntf, 16.0, 4, 0.8));
  // ~6 dB per extra quantizer bit.
  EXPECT_NEAR(predict_sqnr_db(ntf, 16.0, 5, 0.8) -
                  predict_sqnr_db(ntf, 16.0, 4, 0.8),
              6.4, 0.8);
}

}  // namespace
