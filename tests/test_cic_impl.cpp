// Bit-true Hogenauer CIC: exactness against reference convolution, the
// wraparound-correctness property, gain, cascade behaviour.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>

#include "src/decimator/cic.h"
#include "src/dsp/freqz.h"
#include "tests/push_chain.h"

namespace {

using namespace dsadc;
using decim::CicCascade;
using decim::CicDecimator;
using design::CicSpec;

std::vector<std::int64_t> random_codes(std::size_t n, int bits, unsigned seed) {
  std::mt19937 rng(seed);
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  std::uniform_int_distribution<std::int64_t> dist(-hi, hi);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Reference: direct convolution with the unnormalized Sinc^K taps (all
/// ones boxcar convolved K times), decimated by M, phase-aligned with the
/// implementation (outputs at input indices M-1, 2M-1, ...).
std::vector<std::int64_t> reference_cic(const CicSpec& spec,
                                        const std::vector<std::int64_t>& in) {
  std::vector<double> h{1.0};
  const std::vector<double> box(static_cast<std::size_t>(spec.decimation), 1.0);
  for (int k = 0; k < spec.order; ++k) h = dsp::convolve(h, box);
  std::vector<std::int64_t> out;
  for (std::size_t n = static_cast<std::size_t>(spec.decimation) - 1;
       n < in.size(); n += static_cast<std::size_t>(spec.decimation)) {
    double acc = 0.0;
    for (std::size_t k = 0; k < h.size() && k <= n; ++k) {
      acc += h[k] * static_cast<double>(in[n - k]);
    }
    out.push_back(static_cast<std::int64_t>(acc));
  }
  return out;
}

class CicExactness
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CicExactness, MatchesReferenceConvolution) {
  const auto [order, decim, bits] = GetParam();
  const CicSpec spec{order, decim, bits};
  CicDecimator cic(spec);
  const auto in = random_codes(2048, bits, 17);
  const auto out = cic.process(in);
  const auto ref = reference_cic(spec, in);
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], ref[i]) << "sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CicExactness,
    ::testing::Values(std::make_tuple(1, 2, 4), std::make_tuple(4, 2, 4),
                      std::make_tuple(4, 2, 8), std::make_tuple(6, 2, 12),
                      std::make_tuple(3, 4, 4), std::make_tuple(2, 8, 6)));

TEST(CicImpl, DcGainIsMtoK) {
  const CicSpec spec{4, 2, 4};
  CicDecimator cic(spec);
  EXPECT_EQ(cic.dc_gain(), 16);
  // Constant input of 3 -> steady-state output 3 * 16.
  std::vector<std::int64_t> in(256, 3);
  const auto out = cic.process(in);
  EXPECT_EQ(out.back(), 48);
}

TEST(CicImpl, WraparoundStillCorrect) {
  // Full-scale input would overflow the accumulators many times over; the
  // modular arithmetic must still deliver the exact convolution result.
  const CicSpec spec{6, 2, 12};
  CicDecimator cic(spec);
  std::vector<std::int64_t> in(1024, 2047);  // max positive 12-bit
  const auto out = cic.process(in);
  EXPECT_EQ(out.back(), 2047 * 64);
  // And a worst-case alternating pattern.
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = (i % 2) ? 2047 : -2048;
  cic.reset();
  const auto out2 = cic.process(in);
  const auto ref2 = reference_cic(spec, in);
  for (std::size_t i = 0; i < out2.size(); ++i) EXPECT_EQ(out2[i], ref2[i]);
}

TEST(CicImpl, ImpulseResponseMatchesDesignTaps) {
  const CicSpec spec{4, 2, 4};
  CicDecimator cic(spec);
  std::vector<std::int64_t> in(32, 0);
  in[1] = 1;  // impulse at n=1 lands on an output phase
  const auto out = cic.process(in);
  // Unnormalized taps: boxcar^4 (length 5) sampled at the output phases.
  const auto h = design::cic_impulse_response(spec);  // normalized by M^K
  std::vector<double> taps(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) taps[i] = h[i] * spec.dc_gain();
  // Output n sees x[2n+1 - k]: impulse at 1 contributes taps[2n].
  for (std::size_t n = 0; n < 4; ++n) {
    const double expect = (2 * n < taps.size()) ? taps[2 * n] : 0.0;
    EXPECT_EQ(out[n], static_cast<std::int64_t>(expect)) << n;
  }
}

TEST(CicImpl, ResetClearsState) {
  CicDecimator cic(design::CicSpec{4, 2, 8});
  const auto in = random_codes(512, 8, 3);
  const auto a = cic.process(in);
  cic.reset();
  const auto b = cic.process(in);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(CicImpl, RejectsBadSpecs) {
  EXPECT_THROW(CicDecimator(CicSpec{0, 2, 4}), std::invalid_argument);
  EXPECT_THROW(CicDecimator(CicSpec{4, 1, 4}), std::invalid_argument);
  EXPECT_THROW(CicDecimator(CicSpec{20, 8, 16}), std::invalid_argument);
}

/// Uniform over the whole int32_t range: what a client can put in a DATA
/// frame, far past any Sinc register width.
std::vector<std::int64_t> full_range_codes(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int32_t> dist(INT32_MIN, INT32_MAX);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

std::vector<std::int64_t> push_all(const CicSpec& spec,
                                   const std::vector<std::int64_t>& in) {
  CicDecimator ref(spec);
  std::vector<std::int64_t> out;
  std::int64_t y = 0;
  for (const std::int64_t x : in) {
    if (ref.push(x, y)) out.push_back(y);
  }
  return out;
}

// CicDecimatorBank is the stage's block form (DecimationChain runs it at
// one lane, in modular arithmetic). At 1 and 3 lanes, every lane must
// equal push() over the same stream whatever the block split, with
// registers that wrap: in-range codes, and full int32_t inputs that
// overflow the register width so that the output wrap does the work.
TEST(CicBank, LanesMatchPushForAnyBlockSplit) {
  for (const CicSpec spec : {CicSpec{4, 2, 4}, CicSpec{6, 2, 12},
                             CicSpec{3, 5, 8}}) {
    for (const bool full_range : {false, true}) {
      for (const std::size_t lanes : {1u, 3u}) {
        std::vector<std::vector<std::int64_t>> in;
        std::vector<std::vector<std::int64_t>> want;
        for (std::size_t l = 0; l < lanes; ++l) {
          const auto seed = static_cast<unsigned>(17 + l);
          in.push_back(full_range ? full_range_codes(4099, seed)
                                  : random_codes(4099, spec.input_bits, seed));
          want.push_back(push_all(spec, in.back()));
        }
        for (const std::size_t block : {1u, 7u, 256u, 4096u}) {
          decim::CicDecimatorBank bank(spec, lanes);
          EXPECT_EQ(testutil::run_bank(bank, in, block), want)
              << "K=" << spec.order << " M=" << spec.decimation << ", "
              << lanes << " lanes, block " << block
              << (full_range ? ", full int32 range" : "");
        }
      }
    }
  }
}

TEST(CicCascadeImpl, PaperChainGainAndDecimation) {
  CicCascade cascade(design::paper_sinc_cascade());
  EXPECT_EQ(cascade.total_decimation(), 8u);
  EXPECT_EQ(cascade.total_dc_gain(), 16384);  // 2^14
  std::vector<std::int64_t> in(2048, 5);
  const auto out = cascade.process(in);
  EXPECT_EQ(out.size(), 256u);
  EXPECT_EQ(out.back(), 5 * 16384);
}

TEST(CicCascadeImpl, MatchesStageByStage) {
  const auto specs = design::paper_sinc_cascade();
  CicCascade cascade(specs);
  const auto in = random_codes(4096, 4, 23);
  const auto out = cascade.process(in);

  CicDecimator s1(specs[0]), s2(specs[1]), s3(specs[2]);
  const auto ref = s3.process(s2.process(s1.process(in)));
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], ref[i]);
}

TEST(CicCascadeImpl, RejectsEmpty) {
  EXPECT_THROW(CicCascade({}), std::invalid_argument);
}

}  // namespace
