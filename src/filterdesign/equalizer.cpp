#include "src/filterdesign/equalizer.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "src/dsp/freqz.h"
#include "src/dsp/spectrum.h"
#include "src/filterdesign/remez.h"

namespace dsadc::design {

EqualizerResult design_droop_equalizer(
    std::size_t num_taps, const std::function<double(double)>& droop,
    double fp) {
  if (!droop) throw std::invalid_argument("design_droop_equalizer: no droop fn");
  if (!(fp > 0.0 && fp <= 0.5)) {
    throw std::invalid_argument("design_droop_equalizer: fp out of range");
  }
  // Remez asks desired(f) and then weight(f) at every grid point; a
  // one-entry memo lets both share a single droop evaluation.
  std::optional<std::uint64_t> memo_f;  // bit pattern of the memoized f
  double memo_droop = 0.0;
  const auto droop_at = [&](double f) {
    if (memo_f != std::bit_cast<std::uint64_t>(f)) {
      memo_droop = droop(f);
      memo_f = std::bit_cast<std::uint64_t>(f);
    }
    return memo_droop;
  };
  Band band;
  band.f0 = 0.0;
  band.f1 = std::min(fp, 0.4999);
  band.desired = [&droop_at](double f) {
    const double d = droop_at(f);
    if (d <= 1e-6) {
      throw std::runtime_error("design_droop_equalizer: droop too deep");
    }
    return 1.0 / d;
  };
  // Weighting by droop(f) makes the *compensated* error equiripple:
  // |W (EQ - 1/droop)| = |droop * EQ - 1|.
  band.weight = [&droop_at](double f) { return std::max(1e-6, droop_at(f)); };
  const Band bands[] = {band};
  const RemezResult r = remez(num_taps, bands);

  EqualizerResult out;
  out.taps = r.taps;
  out.passband_edge = band.f1;
  // Measure the realized compensated ripple.
  double lo = 1e300, hi = -1e300;
  const std::size_t n = 2048;
  std::vector<double> freqs(n + 1);
  for (std::size_t k = 0; k <= n; ++k) {
    freqs[k] = band.f1 * static_cast<double>(k) / static_cast<double>(n);
  }
  std::vector<double> mags(n + 1);
  dsp::fir_magnitudes(out.taps, freqs, mags);
  for (std::size_t k = 0; k <= n; ++k) {
    const double db = dsp::amplitude_db(droop(freqs[k]) * mags[k]);
    lo = std::min(lo, db);
    hi = std::max(hi, db);
  }
  out.residual_ripple_db = hi - lo;
  return out;
}

std::vector<double> compensated_response_db(
    const EqualizerResult& eq, const std::function<double(double)>& droop,
    std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double f =
        eq.passband_edge * static_cast<double>(k) / static_cast<double>(n - 1);
    out[k] = dsp::amplitude_db(droop(f) *
                               std::abs(dsp::fir_response_at(eq.taps, f)));
  }
  return out;
}

}  // namespace dsadc::design
