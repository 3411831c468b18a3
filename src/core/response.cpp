#include "src/core/response.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "src/dsp/freqz.h"
#include "src/filterdesign/cic.h"
#include "src/fixedpoint/quantize.h"

namespace dsadc::core {
namespace {

/// Quantized equalizer taps (as the hardware implements them).
std::vector<double> quantized_eq_taps(const decim::ChainConfig& cfg) {
  return fx::quantize_taps(cfg.equalizer_taps, cfg.equalizer_frac_bits);
}

/// The composite sweeps divide their band into `grid` steps.
void check_grid(const char* who, std::size_t grid) {
  if (grid == 0) {
    throw std::invalid_argument(std::string(who) + ": grid must be >= 1");
  }
}

/// `grid` + 1 points evenly spaced over [f0, f1], both edges included.
std::vector<double> band_grid(const char* who, double f0, double f1,
                              std::size_t grid) {
  check_grid(who, grid);
  std::vector<double> freqs(grid + 1);
  for (std::size_t k = 0; k <= grid; ++k) {
    freqs[k] = f0 + (f1 - f0) * static_cast<double>(k) / static_cast<double>(grid);
  }
  return freqs;
}

}  // namespace

std::vector<double> composite_impulse_response(const decim::ChainConfig& cfg) {
  // CIC cascade at the input rate (normalized 1/M^K per stage).
  std::vector<double> h = design::cic_cascade_response(cfg.cic_stages);
  std::size_t rate = 1;
  for (const auto& s : cfg.cic_stages) rate *= static_cast<std::size_t>(s.decimation);
  // HBF referred to the input rate.
  h = dsp::convolve(h, dsp::upsample_taps(cfg.hbf.taps, rate));
  rate *= 2;
  // Scaler (pure gain, CSD-quantized as in hardware).
  const double s = fx::csd_encode_limited(cfg.scale, 14, 8).to_double();
  for (auto& v : h) v *= s;
  // Equalizer referred to the input rate.
  h = dsp::convolve(h, dsp::upsample_taps(quantized_eq_taps(cfg), rate));
  return h;
}

std::vector<double> composite_magnitudes(const decim::ChainConfig& cfg,
                                         std::span<const double> freqs_hz) {
  const std::size_t n = freqs_hz.size();
  std::vector<double> f(n), mag(n, 1.0);
  for (std::size_t k = 0; k < n; ++k) f[k] = freqs_hz[k] / cfg.input_rate_hz;
  // cic_magnitude takes the frequency normalized to that stage's input
  // rate, which is f times the decimation accumulated before the stage.
  double rate = 1.0;
  for (const auto& st : cfg.cic_stages) {
    for (std::size_t k = 0; k < n; ++k) {
      mag[k] *= design::cic_magnitude(st, f[k] * rate);
    }
    rate *= st.decimation;
  }
  // The FIR stages at their own rates, each swept over the whole grid.
  std::vector<double> fs(n), fir(n);
  const auto times_fir = [&](std::span<const double> taps, double r) {
    for (std::size_t k = 0; k < n; ++k) fs[k] = f[k] * r;
    dsp::fir_magnitudes(taps, fs, fir);
    for (std::size_t k = 0; k < n; ++k) mag[k] *= fir[k];
  };
  times_fir(cfg.hbf.taps, rate);
  rate *= 2.0;
  // Scaler and equalizer coefficients as the hardware implements them,
  // quantized once per sweep.
  const double s = fx::csd_encode_limited(cfg.scale, 14, 8).to_double();
  for (double& m : mag) m *= s;
  times_fir(quantized_eq_taps(cfg), rate);
  return mag;
}

double composite_magnitude(const decim::ChainConfig& cfg, double freq_hz) {
  return composite_magnitudes(cfg, std::span<const double>(&freq_hz, 1))[0];
}

double pre_equalizer_magnitude(const decim::ChainConfig& cfg, double freq_hz) {
  const double f = freq_hz / cfg.input_rate_hz;
  double mag = 1.0;
  double rate = 1.0;
  for (const auto& st : cfg.cic_stages) {
    mag *= design::cic_magnitude(st, f * rate);
    rate *= st.decimation;
  }
  mag *= std::abs(dsp::fir_response_at(cfg.hbf.taps, f * rate));
  return mag;
}

double composite_stopband_atten_db(const decim::ChainConfig& cfg,
                                   double fstop_hz, std::size_t grid) {
  const double fout = decim::output_rate_hz(cfg);
  const std::vector<double> freqs = band_grid(
      "composite_stopband_atten_db", fstop_hz, 2.0 * fout - fstop_hz, grid);
  const double dc = composite_magnitude(cfg, 0.0);
  double worst = 1e300;
  for (double m : composite_magnitudes(cfg, freqs)) {
    worst = std::min(worst, -20.0 * std::log10(m / dc));
  }
  return worst;
}

double composite_alias_protection_db(const decim::ChainConfig& cfg,
                                     double protect_hz, std::size_t grid) {
  check_grid("composite_alias_protection_db", grid);
  const double fout = decim::output_rate_hz(cfg);
  const double dc = composite_magnitude(cfg, 0.0);
  // All alias images: m * fout +- f for f in (0, protect_hz].
  std::vector<double> images;
  const int mmax = static_cast<int>(cfg.input_rate_hz / 2.0 / fout);
  for (int mI = 1; mI <= mmax; ++mI) {
    for (std::size_t k = 0; k <= grid; ++k) {
      const double f =
          protect_hz * static_cast<double>(k) / static_cast<double>(grid);
      for (double image : {mI * fout - f, mI * fout + f}) {
        if (image <= 0.0 || image >= cfg.input_rate_hz / 2.0) continue;
        images.push_back(image);
      }
    }
  }
  double worst = 1e300;
  for (double m : composite_magnitudes(cfg, images)) {
    worst = std::min(worst, -20.0 * std::log10(m / dc));
  }
  return worst;
}

double composite_passband_ripple_db(const decim::ChainConfig& cfg,
                                    double f0_hz, double f1_hz,
                                    std::size_t grid) {
  const std::vector<double> freqs =
      band_grid("composite_passband_ripple_db", f0_hz, f1_hz, grid);
  double lo = 1e300, hi = -1e300;
  for (double m : composite_magnitudes(cfg, freqs)) {
    const double db = 20.0 * std::log10(m);
    lo = std::min(lo, db);
    hi = std::max(hi, db);
  }
  return hi - lo;
}

}  // namespace dsadc::core
