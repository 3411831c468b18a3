// NTF synthesis: optimal zero placement (Legendre roots, Schreier Table
// 4.1), out-of-band gain control, and SQNR prediction trends.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
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

// The H-inf scan as it was before the grid was evaluated in lanes: one
// std::complex zero/pole product per point, then the golden-section
// refinement. infinity_norm must return its value bit for bit.
std::complex<double> reference_zinv(double f) {
  const double w = 2.0 * std::numbers::pi * f;
  return {std::cos(w), -std::sin(w)};
}

double reference_magnitude(const Ntf& ntf, double f) {
  const std::complex<double> zinv = reference_zinv(f);
  std::complex<double> num(1.0, 0.0), den(1.0, 0.0);
  for (const auto& z : ntf.zeros) num *= (1.0 - z * zinv);
  for (const auto& p : ntf.poles) den *= (1.0 - p * zinv);
  return std::abs(num / den);
}

double reference_infinity_norm(const Ntf& ntf) {
  const std::size_t n = 8192;
  double best = 0.0, best_f = 0.0;
  for (std::size_t k = 0; k <= n; ++k) {
    const double f = 0.5 * static_cast<double>(k) / static_cast<double>(n);
    const double m = reference_magnitude(ntf, f);
    if (m > best) {
      best = m;
      best_f = f;
    }
  }
  double a = std::max(0.0, best_f - 0.5 / n);
  double b = std::min(0.5, best_f + 0.5 / n);
  const double gr = (std::sqrt(5.0) - 1.0) / 2.0;
  double c = b - gr * (b - a), d = a + gr * (b - a);
  for (int it = 0; it < 60; ++it) {
    if (reference_magnitude(ntf, c) > reference_magnitude(ntf, d)) {
      b = d;
    } else {
      a = c;
    }
    c = b - gr * (b - a);
    d = a + gr * (b - a);
  }
  return std::max(best, reference_magnitude(ntf, 0.5 * (a + b)));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(NtfInfinityNorm, MatchesReferenceScanOnSynthesizedNtfs) {
  int checked = 0;
  for (int order = 1; order <= 8; ++order) {
    for (double osr : {16.0, 64.0}) {
      for (double obg : {1.5, 3.0}) {
        for (bool opt : {true, false}) {
          Ntf ntf;
          try {
            ntf = synthesize_ntf(order, osr, obg, opt);
          } catch (const std::runtime_error&) {
            continue;  // OBG unreachable for this order/OSR
          }
          ASSERT_EQ(bits(ntf.infinity_norm()),
                    bits(reference_infinity_norm(ntf)))
              << "order " << order << ", OSR " << osr << ", OBG " << obg
              << (opt ? ", spread zeros" : ", DC zeros");
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 30);
}

TEST(NtfInfinityNorm, MatchesReferenceScanOnHostileRoots) {
  using C = std::complex<double>;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Ntf> cases;
  // Poles on the unit circle at scan points: zero denominators.
  cases.push_back({{C(1.0, 0.0)}, {C(1.0, 0.0), C(-1.0, 0.0)}});
  cases.push_back({{}, {std::polar(1.0, 2.0 * std::numbers::pi * 0.125)}});
  // Huge roots: the products overflow, and the plain complex product
  // formula goes NaN in both parts where std::complex recovers infinities.
  cases.push_back({{}, std::vector<C>(5, C(1e80, 1e80))});
  cases.push_back({std::vector<C>(6, C(-1e70, 3e69)),
                   std::vector<C>(6, C(1e70, -1e70))});
  cases.push_back({std::vector<C>(4, C(1e200, 0.0)), {C(0.5, 0.0)}});
  // Found by a random search over huge root sets: the scan's peak is a
  // point where only __muldc3's infinity recovery gives a number (inf);
  // the plain formula gives NaN there and everywhere else.
  cases.push_back(
      {{C(-0x1.78dce84f2b8f6p+193, -0x1.a81a4f42a089p+192),
        C(-0x1.e81c5766a766cp+180, 0x1.08f89e320b1dp+179),
        C(0x1.438df45ce9f02p+68, -0x1.203d0cb753cc2p+70),
        C(0x1.20566f7df3857p+343, -0x1.8e4c2d06838efp+340),
        C(-0x1.efb46aead60a5p-1, -0x1.00498c3202197p-2),
        C(0x1.5fcd9301c67c3p-1, 0x1.73fe2726dd45fp-1),
        C(-0x1.1c5c7afb42a96p+352, -0x1.95cbc82e7b4e8p+353),
        C(0x1.b58f9d1195ed1p+341, 0x1.48de0637561e5p+343),
        C(-0x1.cc7375ae535e9p+311, 0x1.94f76109b62b9p+309)},
       {C(-0x1.fb7ffd1d82d88p+271, 0x1.089a30472a82cp+271),
        C(-0x1.ea0dd95b14c9bp+248, 0x1.cb1c9fe3a210ep+253),
        C(0x1.9f3d7dd63239fp+391, -0x1.d2cbcaf16d73dp+390),
        C(-0x1.a39094b353cd8p-1, 0x1.2571ac9b50695p-1),
        C(0x1.0047abcfb817ap+107, -0x1.337a3fbc4f1e1p+109)}});
  // Infinite and NaN roots, and tiny ones.
  cases.push_back({{C(inf, 0.0)}, {C(0.3, 0.2)}});
  cases.push_back({{C(0.9, 0.1)}, {C(0.0, inf), C(0.2, 0.0)}});
  cases.push_back({{C(nan, 0.0)}, {C(0.5, 0.5)}});
  cases.push_back({{C(1e-300, -1e-300)}, {C(-1e-310, 0.0)}});
  // Random root sets of every order up to 8, some outside the disc.
  std::mt19937_64 rng(8);
  std::uniform_real_distribution<double> u(-1.5, 1.5);
  for (int order = 1; order <= 8; ++order) {
    Ntf t;
    for (int i = 0; i < order; ++i) {
      t.zeros.emplace_back(u(rng), u(rng));
      t.poles.emplace_back(u(rng), u(rng));
    }
    cases.push_back(t);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(bits(cases[i].infinity_norm()),
              bits(reference_infinity_norm(cases[i])))
        << "case " << i;
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
