// Bit-true Saramaki halfband decimator: impulse response against the
// design taps, agreement with the direct-form composite implementation,
// and numeric behaviour of the guarded internal formats.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "src/decimator/fir.h"
#include "src/decimator/hbf.h"
#include "src/filterdesign/saramaki.h"
#include "src/obs/obs.h"
#include "tests/push_chain.h"

namespace {

using namespace dsadc;
using decim::FixedTaps;
using decim::PolyphaseHalfbandDecimator;
using decim::SaramakiHbfDecimator;

class HbfImpl : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    design_ = new design::SaramakiHbf(
        design::design_saramaki_hbf(3, 6, 0.2125, 24, 0));
  }
  static void TearDownTestSuite() {
    delete design_;
    design_ = nullptr;
  }
  static design::SaramakiHbf* design_;
};

design::SaramakiHbf* HbfImpl::design_ = nullptr;

TEST_F(HbfImpl, GroupDelayIs55) {
  SaramakiHbfDecimator hbf(*design_, fx::Format{18, 14}, fx::Format{18, 14});
  EXPECT_EQ(hbf.group_delay(), 55u);
}

TEST_F(HbfImpl, ImpulseResponseMatchesDesignTaps) {
  const fx::Format fmt{18, 14};
  SaramakiHbfDecimator hbf(*design_, fmt, fmt);
  // Drive with a scaled impulse; collect outputs and compare with the even
  // phases of the composite taps (the decimated impulse response).
  std::vector<std::int64_t> in(256, 0);
  const std::int64_t amp = 1 << 10;  // small enough to avoid saturation
  in[0] = amp;
  const auto out = hbf.process(in);
  for (std::size_t n = 0; n < 60; ++n) {
    // Output n corresponds to input index 2n; tap index 2n.
    const double expect =
        (2 * n < design_->taps.size()) ? design_->taps[2 * n] : 0.0;
    const double got = static_cast<double>(out[n]) / static_cast<double>(amp);
    EXPECT_NEAR(got, expect, 2e-3) << "output " << n;
  }
}

TEST_F(HbfImpl, SecondPolyphaseViaShiftedImpulse) {
  const fx::Format fmt{18, 14};
  SaramakiHbfDecimator hbf(*design_, fmt, fmt);
  std::vector<std::int64_t> in(256, 0);
  const std::int64_t amp = 1 << 10;
  in[1] = amp;  // odd-phase impulse exercises the 0.5 delay path
  const auto out = hbf.process(in);
  for (std::size_t n = 0; n < 60; ++n) {
    const std::size_t k = 2 * n;  // input index at output n
    const double expect =
        (k >= 1 && k - 1 < design_->taps.size()) ? design_->taps[k - 1] : 0.0;
    const double got = static_cast<double>(out[n]) / static_cast<double>(amp);
    EXPECT_NEAR(got, expect, 2e-3) << "output " << n;
  }
  // The center 0.5 tap must appear exactly (it is a pure shift).
  // Output at 2n = 56 -> tap index 55 = 0.5.
  const double center = static_cast<double>(out[28]) / static_cast<double>(amp);
  EXPECT_NEAR(center, 0.5, 1e-4);
}

TEST_F(HbfImpl, AgreesWithDirectFormComposite) {
  // The tapped cascade and a direct-form FIR of the composite taps differ
  // only by internal rounding; on realistic signals the outputs must agree
  // to a few LSB-scale counts.
  const fx::Format fmt{18, 14};
  SaramakiHbfDecimator cascade(*design_, fmt, fmt);
  const FixedTaps composite = FixedTaps::from_real(design_->taps, 24);
  PolyphaseHalfbandDecimator direct(composite, fmt, fmt);
  std::mt19937 rng(77);
  std::uniform_int_distribution<std::int64_t> dist(-80000, 80000);
  std::vector<std::int64_t> in(2048);
  for (auto& v : in) v = dist(rng);
  const auto a = cascade.process(in);
  const auto b = direct.process(in);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 100; i < a.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(a[i]), static_cast<double>(b[i]), 24.0)
        << "output " << i;
  }
}

TEST_F(HbfImpl, DcGainIsUnity) {
  const fx::Format fmt{18, 14};
  SaramakiHbfDecimator hbf(*design_, fmt, fmt);
  std::vector<std::int64_t> in(2048, 50000);
  const auto out = hbf.process(in);
  EXPECT_NEAR(static_cast<double>(out.back()), 50000.0, 30.0);
}

TEST_F(HbfImpl, SaturatesGracefullyAtExtremes) {
  const fx::Format fmt{18, 14};
  SaramakiHbfDecimator hbf(*design_, fmt, fmt);
  std::vector<std::int64_t> in(512, fmt.raw_max());
  const auto out = hbf.process(in);
  for (std::int64_t v : out) {
    EXPECT_LE(v, fmt.raw_max());
    EXPECT_GE(v, fmt.raw_min());
  }
}

TEST_F(HbfImpl, ResetIsDeterministic) {
  const fx::Format fmt{18, 14};
  SaramakiHbfDecimator hbf(*design_, fmt, fmt);
  std::mt19937 rng(5);
  std::uniform_int_distribution<std::int64_t> dist(-10000, 10000);
  std::vector<std::int64_t> in(512);
  for (auto& v : in) v = dist(rng);
  const auto a = hbf.process(in);
  hbf.reset();
  const auto b = hbf.process(in);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// SaramakiHbfBank is the stage's block form (DecimationChain runs it at
// one lane). At 1 and 3 lanes, every lane must equal push() -- samples and
// the hbf_* fx counters -- whatever the block split, including odd splits
// that leave the decimate-by-2 phase mid-pair and inputs that saturate.
TEST_F(HbfImpl, BankLanesMatchPushForAnyBlockSplit) {
  if (!obs::kCompiledOn) GTEST_SKIP() << "instrumentation compiled out";
  obs::set_enabled(true);
  auto& reg = obs::Registry::instance();
  const fx::Format fmt{18, 14};
  std::mt19937 rng(5);
  std::uniform_int_distribution<std::int64_t> dist(fmt.raw_min(),
                                                   fmt.raw_max());
  for (const std::size_t lanes : {1u, 3u}) {
    std::vector<std::vector<std::int64_t>> in(lanes);
    for (auto& lane : in) {
      lane.resize(4099);
      for (auto& x : lane) x = dist(rng);
    }
    reg.reset_all();
    std::vector<std::vector<std::int64_t>> want(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      SaramakiHbfDecimator ref(*design_, fmt, fmt);
      std::int64_t y = 0;
      for (const std::int64_t x : in[l]) {
        if (ref.push(x, y)) want[l].push_back(y);
      }
    }
    const auto want_fx = testutil::fx_snapshot();
    EXPECT_GT(reg.counter_total("fx.saturate."), 0u);
    for (const std::size_t block : {1u, 7u, 256u, 4096u}) {
      reg.reset_all();
      decim::SaramakiHbfBank bank(*design_, lanes, fmt, fmt);
      EXPECT_EQ(testutil::run_bank(bank, in, block), want)
          << lanes << " lanes, block " << block;
      EXPECT_EQ(testutil::fx_snapshot(), want_fx)
          << lanes << " lanes, block " << block;
    }
  }
}

TEST_F(HbfImpl, MacCountMatchesStructure) {
  SaramakiHbfDecimator hbf(*design_, fx::Format{18, 14}, fx::Format{18, 14});
  EXPECT_EQ(hbf.macs_per_output(), 5u * 6u + 3u);
}

TEST(HbfImplErrors, RejectsEmptyDesignAndWideFormats) {
  design::SaramakiHbf empty;
  EXPECT_THROW(SaramakiHbfDecimator(empty, fx::Format{18, 14},
                                    fx::Format{18, 14}),
               std::invalid_argument);
  const auto d = design::design_saramaki_hbf(2, 4, 0.2, 24, 0);
  EXPECT_THROW(SaramakiHbfDecimator(d, fx::Format{55, 0}, fx::Format{18, 14}),
               std::invalid_argument);
}

// The products multiply int64 coefficients by internal-format samples;
// a coefficient scale whose worst-case product passes 62 bits is refused
// in both forms (the paper's 24 bits leave ample room).
TEST(HbfImplErrors, RejectsCoefficientScalesPast62BitProducts) {
  const fx::Format fmt{18, 14};
  const auto d = design::design_saramaki_hbf(3, 6, 0.2125, 24, 0);
  EXPECT_NO_THROW(SaramakiHbfDecimator(d, fmt, fmt, 24));
  EXPECT_NO_THROW(decim::SaramakiHbfBank(d, 4, fmt, fmt, 24));
  for (const int frac : {40, 55, 62}) {
    EXPECT_THROW(SaramakiHbfDecimator(d, fmt, fmt, frac),
                 std::invalid_argument)
        << frac;
    EXPECT_THROW(decim::SaramakiHbfBank(d, 4, fmt, fmt, frac),
                 std::invalid_argument)
        << frac;
  }
}

// n1/n2 size every delay line and index f1/f2; a design (e.g. decoded from
// a CFG1 frame) whose counts disagree with its CSD coefficients would read
// past them. Both forms refuse it at construction.
TEST(HbfImplErrors, RejectsCountsThatDisagreeWithCoefficients) {
  const fx::Format fmt{18, 14};
  const auto good = design::design_saramaki_hbf(3, 6, 0.2125, 24, 0);
  EXPECT_NO_THROW(SaramakiHbfDecimator(good, fmt, fmt));
  std::vector<design::SaramakiHbf> bad(6, good);
  bad[0].n1 = 4;
  bad[1].n2 = 9;
  bad[2].n1 = 0;
  bad[3].f1_csd.pop_back();
  bad[4].f2_csd.clear();
  bad[5].n2 = 0;
  bad[5].f2_csd.clear();
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(SaramakiHbfDecimator(bad[i], fmt, fmt),
                 std::invalid_argument)
        << i;
    EXPECT_THROW(decim::SaramakiHbfBank(bad[i], 4, fmt, fmt),
                 std::invalid_argument)
        << i;
  }
}

}  // namespace
