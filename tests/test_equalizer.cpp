// Inverse-droop equalizer design (Section VI).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "src/dsp/freqz.h"
#include "src/dsp/spectrum.h"
#include "src/filterdesign/cic.h"
#include "src/filterdesign/equalizer.h"
#include "src/filterdesign/remez.h"

namespace {

using namespace dsadc;
using namespace dsadc::design;

double sinc_cascade_droop(double f) {
  // The paper's Sinc4/Sinc4/Sinc6 droop referred to the 40 MHz rate.
  double mag = 1.0;
  double ratio = 16.0;
  for (const auto& s : paper_sinc_cascade()) {
    mag *= cic_magnitude(s, f / ratio);
    ratio /= s.decimation;
  }
  return mag;
}

TEST(Equalizer, RejectsBadArgs) {
  EXPECT_THROW(design_droop_equalizer(65, nullptr, 0.4), std::invalid_argument);
  EXPECT_THROW(design_droop_equalizer(65, [](double) { return 1.0; }, 0.0),
               std::invalid_argument);
  EXPECT_THROW(design_droop_equalizer(65, [](double) { return 1e-9; }, 0.4),
               std::runtime_error);
}

TEST(Equalizer, CompensatesSincDroopPaperCase) {
  // Sinc-only droop (-4.5 dB at the edge) with the paper's 65 taps:
  // residual well under the 0.5 dB of Fig. 10.
  const auto eq = design_droop_equalizer(65, sinc_cascade_droop, 0.4999);
  EXPECT_EQ(eq.taps.size(), 65u);
  EXPECT_TRUE(dsp::is_symmetric(eq.taps, 1e-9));
  EXPECT_LT(eq.residual_ripple_db, 0.2);
}

TEST(Equalizer, GainRisesTowardBandEdge) {
  const auto eq = design_droop_equalizer(65, sinc_cascade_droop, 0.4999);
  const double g0 = std::abs(dsp::fir_response_at(eq.taps, 0.01));
  const double g1 = std::abs(dsp::fir_response_at(eq.taps, 0.45));
  EXPECT_GT(g1, g0 * 1.2);  // inverse-sinc boost
  // At the edge the boost approximates 1/droop.
  EXPECT_NEAR(g1, 1.0 / sinc_cascade_droop(0.45), 0.05 / sinc_cascade_droop(0.45));
}

TEST(Equalizer, MoreTapsLessResidual) {
  const auto a = design_droop_equalizer(33, sinc_cascade_droop, 0.4999);
  const auto b = design_droop_equalizer(65, sinc_cascade_droop, 0.4999);
  EXPECT_LE(b.residual_ripple_db, a.residual_ripple_db + 1e-9);
}

TEST(Equalizer, CompensatedResponseSeries) {
  const auto eq = design_droop_equalizer(49, sinc_cascade_droop, 0.48);
  const auto series = compensated_response_db(eq, sinc_cascade_droop, 64);
  ASSERT_EQ(series.size(), 64u);
  for (double v : series) {
    EXPECT_NEAR(v, 0.0, 0.5);  // flat to within half a dB
  }
}

TEST(Equalizer, IdentityDroopGivesAllpassUnity) {
  const auto eq =
      design_droop_equalizer(33, [](double) { return 1.0; }, 0.4999);
  for (double f = 0.0; f <= 0.48; f += 0.06) {
    EXPECT_NEAR(std::abs(dsp::fir_response_at(eq.taps, f)), 1.0, 1e-3);
  }
}

TEST(Equalizer, MatchesDirectRemezWithOneDroopCallPerPoint) {
  std::vector<double> calls;
  const auto counted = [&calls](double f) {
    calls.push_back(f);
    return sinc_cascade_droop(f);
  };
  const auto eq = design_droop_equalizer(49, counted, 0.4999);

  // The same design, posed directly: the taps must be bit-identical.
  Band band;
  band.f0 = 0.0;
  band.f1 = 0.4999;
  band.desired = [](double f) { return 1.0 / sinc_cascade_droop(f); };
  band.weight = [](double f) {
    return std::max(1e-6, sinc_cascade_droop(f));
  };
  const Band bands[] = {band};
  const RemezResult r = remez(49, bands);
  ASSERT_EQ(eq.taps.size(), r.taps.size());
  for (std::size_t i = 0; i < r.taps.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(eq.taps[i]),
              std::bit_cast<std::uint64_t>(r.taps[i])) << "tap " << i;
  }

  // The realized ripple, measured point by point over 2049 points.
  double lo = 1e300, hi = -1e300;
  for (std::size_t k = 0; k <= 2048; ++k) {
    const double f = 0.4999 * static_cast<double>(k) / 2048.0;
    const double db = dsp::amplitude_db(
        sinc_cascade_droop(f) * std::abs(dsp::fir_response_at(eq.taps, f)));
    lo = std::min(lo, db);
    hi = std::max(hi, db);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(eq.residual_ripple_db),
            std::bit_cast<std::uint64_t>(hi - lo));

  // Remez asks desired(f) and weight(f) at each grid point; the droop
  // behind both is evaluated once, so no point is asked twice in a row.
  ASSERT_GT(calls.size(), 2049u);
  for (std::size_t i = 1; i < calls.size(); ++i) {
    EXPECT_NE(std::bit_cast<std::uint64_t>(calls[i]),
              std::bit_cast<std::uint64_t>(calls[i - 1])) << "call " << i;
  }
}

}  // namespace
