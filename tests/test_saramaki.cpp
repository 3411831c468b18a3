// Saramaki tapped-cascade halfband (Fig. 7): structure, basis conversion,
// response consistency, attenuation and hardware cost.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/dsp/chebyshev.h"
#include "src/dsp/freqz.h"
#include "src/filterdesign/halfband.h"
#include "src/filterdesign/saramaki.h"
#include "tests/env_guard.h"

namespace {

using namespace dsadc;
using namespace dsadc::design;

TEST(ChebyshevToPower, KnownConversions) {
  // c1 T1 -> p1 = c1.
  auto p = chebyshev_to_power_basis({0.7});
  ASSERT_EQ(p.size(), 1u);
  EXPECT_NEAR(p[0], 0.7, 1e-15);
  // T3 = 4y^3 - 3y.
  p = chebyshev_to_power_basis({0.0, 1.0});
  EXPECT_NEAR(p[0], -3.0, 1e-12);
  EXPECT_NEAR(p[1], 4.0, 1e-12);
  // General identity check by evaluation.
  const std::vector<double> c{0.6, -0.08, 0.02};
  p = chebyshev_to_power_basis(c);
  for (double y = -1.0; y <= 1.0; y += 0.1) {
    double want = 0.0, got = 0.0, yp = y;
    for (std::size_t i = 1; i <= c.size(); ++i) {
      want += c[i - 1] * dsp::chebyshev_t(2 * i - 1, y);
      got += p[i - 1] * yp;
      yp *= y * y;
    }
    EXPECT_NEAR(got, want, 1e-12);
  }
}

class PaperHbf : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hbf_ = new SaramakiHbf(design_saramaki_hbf(3, 6, 0.2125, 24, 0));
  }
  static void TearDownTestSuite() {
    delete hbf_;
    hbf_ = nullptr;
  }
  static SaramakiHbf* hbf_;
};

SaramakiHbf* PaperHbf::hbf_ = nullptr;

TEST_F(PaperHbf, PaperStructureNumbers) {
  EXPECT_EQ(hbf_->n1, 3u);
  EXPECT_EQ(hbf_->n2, 6u);
  EXPECT_EQ(hbf_->order(), 110u);   // "The 110th order filter"
  EXPECT_EQ(hbf_->taps.size(), 111u);
  // ">= 90 dB stopband attenuation"
  EXPECT_GE(hbf_->stopband_atten_db, 90.0);
  // "... uses only 124 adders": same ballpark for our CSD encoding.
  EXPECT_GT(hbf_->adder_count, 60u);
  EXPECT_LT(hbf_->adder_count, 160u);
}

TEST_F(PaperHbf, CompositeIsExactHalfband) {
  EXPECT_TRUE(is_halfband(hbf_->taps, 1e-9));
  EXPECT_TRUE(dsp::is_symmetric(hbf_->taps, 1e-9));
}

TEST_F(PaperHbf, ZeroPhaseMatchesImpulseResponse) {
  // The taps are composed from the CSD-quantized coefficients, so compare
  // against the zero-phase evaluation of those quantized values.
  std::vector<double> f1q, f2q;
  for (const auto& c : hbf_->f1_csd) f1q.push_back(c.to_double());
  for (const auto& c : hbf_->f2_csd) f2q.push_back(c.to_double());
  const std::size_t d = hbf_->taps.size() / 2;
  for (double f = 0.0; f <= 0.5; f += 0.013) {
    const auto resp = dsp::fir_response_at(hbf_->taps, f);
    const double w = 2.0 * M_PI * f * static_cast<double>(d);
    const double zero_phase = resp.real() * std::cos(w) - resp.imag() * std::sin(w);
    EXPECT_NEAR(zero_phase, saramaki_zero_phase(f1q, f2q, f), 1e-9)
        << "f=" << f;
  }
}

TEST_F(PaperHbf, PassbandRippleTiny) {
  EXPECT_LT(hbf_->passband_ripple_db, 0.01);
}

TEST_F(PaperHbf, SubfilterBounded) {
  // |F2hat| <= ~0.5 everywhere (Chebyshev argument domain).
  for (double f = 0.0; f <= 0.5; f += 0.002) {
    EXPECT_LE(std::abs(f2_zero_phase(hbf_->f2, f)), 0.52);
  }
}

TEST(Saramaki, F2AntisymmetryAroundQuarter) {
  const auto h = design_saramaki_hbf(3, 6, 0.21, 24, 0);
  for (double f = 0.0; f <= 0.25; f += 0.01) {
    EXPECT_NEAR(f2_zero_phase(h.f2, f), -f2_zero_phase(h.f2, 0.5 - f), 1e-10);
  }
}

class SaramakiStructures
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SaramakiStructures, OrderFormulaAndHalfbandness) {
  const auto [n1, n2] = GetParam();
  const auto h = design_saramaki_hbf(n1, n2, 0.21, 24, 0);
  EXPECT_EQ(h.taps.size(), 2 * (2 * n1 - 1) * (2 * n2 - 1) + 1);
  EXPECT_TRUE(is_halfband(h.taps, 1e-9));
  EXPECT_GT(h.stopband_atten_db, 20.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SaramakiStructures,
    ::testing::Values(std::make_tuple(std::size_t{2}, std::size_t{4}),
                      std::make_tuple(std::size_t{2}, std::size_t{6}),
                      std::make_tuple(std::size_t{3}, std::size_t{5}),
                      std::make_tuple(std::size_t{3}, std::size_t{6}),
                      std::make_tuple(std::size_t{4}, std::size_t{7})));

TEST(Saramaki, CsdBudgetTradesAttenuationForAdders) {
  const auto full = design_saramaki_hbf(3, 6, 0.2125, 24, 0);
  const auto lean = design_saramaki_hbf(3, 6, 0.2125, 24, 3);
  EXPECT_LT(lean.adder_count, full.adder_count);
  EXPECT_LE(lean.stopband_atten_db, full.stopband_atten_db + 1.0);
}

TEST(Saramaki, QuantizedTapsMatchCsdValues) {
  const auto h = design_saramaki_hbf(3, 6, 0.2125, 24, 4);
  for (std::size_t i = 0; i < h.f2.size(); ++i) {
    EXPECT_LE(h.f2_csd[i].nonzero_count(), 4u);
  }
  // The composite taps are built from the CSD values, so recomposing must
  // reproduce them exactly.
  std::vector<double> f1q, f2q;
  for (const auto& c : h.f1_csd) f1q.push_back(c.to_double());
  for (const auto& c : h.f2_csd) f2q.push_back(c.to_double());
  const auto taps = saramaki_impulse_response(f1q, f2q);
  ASSERT_EQ(taps.size(), h.taps.size());
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_NEAR(taps[i], h.taps[i], 1e-12);
  }
}

TEST(Saramaki, AutoSearchMeetsTargetCheaply) {
  const auto h = design_saramaki_hbf_auto(0.2125, 90.0, 24);
  EXPECT_GE(h.stopband_atten_db, 90.0);
  // The auto search must not be more expensive than the default structure
  // at full precision.
  const auto fixed = design_saramaki_hbf(3, 6, 0.2125, 24, 0);
  EXPECT_LE(h.adder_count, fixed.adder_count + 5);
}

// The exhaustive search over the same candidates, through the public
// fixed-structure API: design every candidate in full and keep the first
// one with strictly fewer adders that meets the target.
SaramakiHbf exhaustive_search(double fp, double atten_db) {
  const std::pair<std::size_t, std::size_t> structures[] = {
      {2, 4}, {2, 5}, {3, 5}, {3, 6}, {3, 7}, {4, 7}, {4, 8}, {4, 10}, {5, 12}};
  const std::size_t digit_budgets[] = {3, 4, 5, 0};
  std::optional<SaramakiHbf> best;
  for (const auto& [n1, n2] : structures) {
    for (std::size_t digits : digit_budgets) {
      SaramakiHbf cand = design_saramaki_hbf(n1, n2, fp, 24, digits);
      if (cand.stopband_atten_db < atten_db) continue;
      if (!best || cand.adder_count < best->adder_count) best = std::move(cand);
    }
  }
  if (!best) throw std::runtime_error("unreachable");
  return *best;
}

void expect_csd_eq(const std::vector<fx::Csd>& a,
                   const std::vector<fx::Csd>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].digits.size(), b[i].digits.size()) << "coefficient " << i;
    for (std::size_t d = 0; d < a[i].digits.size(); ++d) {
      EXPECT_EQ(a[i].digits[d].sign, b[i].digits[d].sign);
      EXPECT_EQ(a[i].digits[d].position, b[i].digits[d].position);
    }
  }
}

TEST(Saramaki, AutoSearchMatchesExhaustive) {
  // The search quantizes each structure's digit budgets in parallel; the
  // result must be the exhaustive one at any worker count.
  for (double fp : {0.15, 0.18, 0.2125, 0.22, 0.23, 0.24}) {
    for (double atten : {60.0, 75.0, 90.0, 100.0}) {
      const SaramakiHbf want = exhaustive_search(fp, atten);
      for (const char* threads : {"1", "2", "8"}) {
        const testutil::EnvGuard env("DSADC_VERIFY_THREADS", threads);
        SCOPED_TRACE(::testing::Message() << "fp " << fp << ", " << atten
                                          << " dB, " << threads
                                          << " threads");
        const SaramakiHbf got = design_saramaki_hbf_auto(fp, atten, 24);
        EXPECT_EQ(got.n1, want.n1);
        EXPECT_EQ(got.n2, want.n2);
        EXPECT_EQ(got.passband_edge, want.passband_edge);
        EXPECT_EQ(got.f1, want.f1);
        EXPECT_EQ(got.f2, want.f2);
        expect_csd_eq(got.f1_csd, want.f1_csd);
        expect_csd_eq(got.f2_csd, want.f2_csd);
        EXPECT_EQ(got.taps, want.taps);
        EXPECT_EQ(got.stopband_atten_db, want.stopband_atten_db);
        EXPECT_EQ(got.passband_ripple_db, want.passband_ripple_db);
        EXPECT_EQ(got.adder_count, want.adder_count);
      }
    }
  }
  // Unreachable targets still throw: Saramaki.RejectsBadArgs.
}

TEST(Saramaki, StructuralAdderFormula) {
  EXPECT_EQ(saramaki_structural_adders(3, 6), 5u * 11u + 3u);
  EXPECT_EQ(saramaki_structural_adders(2, 4), 3u * 7u + 2u);
}

TEST(Saramaki, RejectsBadArgs) {
  EXPECT_THROW(design_saramaki_hbf(0, 6, 0.2), std::invalid_argument);
  EXPECT_THROW(design_saramaki_hbf(3, 1, 0.2), std::invalid_argument);
  EXPECT_THROW(design_saramaki_hbf(3, 6, 0.3), std::invalid_argument);
  EXPECT_THROW(design_saramaki_hbf_auto(0.24, 200.0), std::runtime_error);
}

}  // namespace
