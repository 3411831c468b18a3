#include "src/filterdesign/halfband.h"

#include <cmath>
#include <stdexcept>

#include "src/dsp/freqz.h"
#include "src/filterdesign/remez.h"

namespace dsadc::design {

HalfbandResult design_halfband(std::size_t j, double fp) {
  if (j < 2) throw std::invalid_argument("design_halfband: j must be >= 2");
  if (!(fp > 0.0 && fp < 0.25)) {
    throw std::invalid_argument("design_halfband: fp must be in (0, 0.25)");
  }
  // Single-band Type II sub-design: G approximates 1 on [0, 2 fp].
  const Band band[] = {const_band(0.0, 2.0 * fp, 1.0, 1.0)};
  const RemezResult g = remez(2 * j, band);

  HalfbandResult out;
  out.j = j;
  out.passband_edge = fp;
  out.taps.assign(4 * j - 1, 0.0);
  for (std::size_t i = 0; i < g.taps.size(); ++i) {
    out.taps[2 * i] = g.taps[i] / 2.0;
  }
  out.taps[2 * j - 1] = 0.5;  // center tap
  // The G ripple is 2x the half-band ripple by construction; measure the
  // realized response directly for robustness.
  out.ripple = 0.0;
  const std::size_t n = 2048;
  std::vector<double> freqs(n + 1);
  for (std::size_t k = 0; k <= n; ++k) {
    freqs[k] = fp * static_cast<double>(k) / static_cast<double>(n);
  }
  std::vector<double> mags(n + 1);
  dsp::fir_magnitudes(out.taps, freqs, mags);
  for (double m : mags) out.ripple = std::max(out.ripple, std::abs(m - 1.0));
  out.stopband_atten_db = dsp::min_attenuation_db(out.taps, 0.5 - fp, 0.5);
  return out;
}

HalfbandResult design_halfband_for_attenuation(double fp, double atten_db,
                                               std::size_t max_j) {
  for (std::size_t j = 2; j <= max_j; ++j) {
    HalfbandResult r = design_halfband(j, fp);
    if (r.stopband_atten_db >= atten_db) return r;
  }
  throw std::runtime_error(
      "design_halfband_for_attenuation: spec unreachable within max_j");
}

bool is_halfband(const std::vector<double>& taps, double tol) {
  if (taps.size() % 2 == 0) return false;
  const std::size_t mid = taps.size() / 2;
  if (std::abs(taps[mid] - 0.5) > tol) return false;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    if (i == mid) continue;
    const bool odd_offset = ((i > mid ? i - mid : mid - i) % 2) == 1;
    if (!odd_offset && std::abs(taps[i]) > tol) return false;
  }
  return true;
}

}  // namespace dsadc::design
