#include "src/dsp/freqz.h"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "src/dsp/spectrum.h"

namespace dsadc::dsp {
namespace {

/// Horner chains fir_magnitudes runs side by side. Eight independent
/// complex multiply-add chains hide the latency one serial chain exposes.
constexpr std::size_t kLanes = 8;

/// |H| on `n` points evenly spaced over [f0, f1], both edges included.
std::vector<double> band_magnitudes(const char* who,
                                    std::span<const double> h, double f0,
                                    double f1, std::size_t n) {
  if (n < 2) {
    throw std::invalid_argument(std::string(who) +
                                ": a band sweep needs n >= 2 points");
  }
  std::vector<double> freqs(n);
  for (std::size_t k = 0; k < n; ++k) {
    freqs[k] = f0 + (f1 - f0) * static_cast<double>(k) / static_cast<double>(n - 1);
  }
  std::vector<double> mags(n);
  fir_magnitudes(h, freqs, mags);
  return mags;
}

}  // namespace

std::complex<double> fir_response_at(std::span<const double> h, double f) {
  // Horner evaluation at z^-1 = e^{-j 2 pi f}.
  const double w = 2.0 * std::numbers::pi * f;
  const std::complex<double> zinv(std::cos(w), -std::sin(w));
  std::complex<double> acc(0.0, 0.0);
  for (std::size_t i = h.size(); i-- > 0;) acc = acc * zinv + h[i];
  return acc;
}

void fir_magnitudes(std::span<const double> h, std::span<const double> freqs,
                    std::span<double> mags) {
  if (mags.size() != freqs.size()) {
    throw std::invalid_argument("fir_magnitudes: freqs/mags size mismatch");
  }
  // This TU is built for the baseline ISA on purpose: with FMA available,
  // GCC's default -ffp-contract=fast would fuse the products below and
  // the lanes would no longer match fir_response_at bit for bit.
  const std::size_t n = freqs.size();
  const std::size_t full = n - n % kLanes;
  for (std::size_t k0 = 0; k0 < full; k0 += kLanes) {
    double zr[kLanes], zi[kLanes], ar[kLanes], ai[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double w = 2.0 * std::numbers::pi * freqs[k0 + l];
      zr[l] = std::cos(w);
      zi[l] = -std::sin(w);
      ar[l] = 0.0;
      ai[l] = 0.0;
    }
    // acc = acc * zinv + h[i] per lane, in std::complex's operation order:
    // the product's real and imaginary parts, then h[i] added to the real
    // part only (adding 0.0 to the imaginary part would turn -0 into +0).
    for (std::size_t i = h.size(); i-- > 0;) {
      const double hi = h[i];
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double re = ar[l] * zr[l] - ai[l] * zi[l];
        const double im = ar[l] * zi[l] + ai[l] * zr[l];
        ar[l] = re + hi;
        ai[l] = im;
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      // std::complex leaves the plain formula (for __muldc3's infinity
      // recovery) exactly when a product comes out NaN in both parts, and
      // such a lane stays NaN in both parts to the end: recompute it.
      mags[k0 + l] = std::isnan(ar[l]) && std::isnan(ai[l])
                         ? std::abs(fir_response_at(h, freqs[k0 + l]))
                         : std::abs(std::complex<double>(ar[l], ai[l]));
    }
  }
  for (std::size_t k = full; k < n; ++k) {
    mags[k] = std::abs(fir_response_at(h, freqs[k]));
  }
}

std::complex<double> rational_response_at(std::span<const double> b,
                                          std::span<const double> a,
                                          double f) {
  const std::complex<double> num = fir_response_at(b, f);
  const std::complex<double> den = fir_response_at(a, f);
  return num / den;
}

std::vector<double> fir_magnitude_db(std::span<const double> h, std::size_t n,
                                     double fmax) {
  std::vector<double> out(n);
  fir_magnitudes(h, frequency_grid(n, fmax), out);
  for (double& m : out) m = amplitude_db(m);
  return out;
}

std::vector<double> frequency_grid(std::size_t n, double fmax) {
  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = fmax * static_cast<double>(k) / static_cast<double>(n);
  }
  return out;
}

double passband_ripple_db(std::span<const double> h, double f0, double f1,
                          std::size_t n) {
  double lo = 1e300, hi = -1e300;
  for (double mag : band_magnitudes("passband_ripple_db", h, f0, f1, n)) {
    const double m = amplitude_db(mag);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  return hi - lo;
}

double max_magnitude_db(std::span<const double> h, double f0, double f1,
                        std::size_t n) {
  double hi = -1e300;
  for (double mag : band_magnitudes("max_magnitude_db", h, f0, f1, n)) {
    hi = std::max(hi, amplitude_db(mag));
  }
  return hi;
}

double min_attenuation_db(std::span<const double> h, double f0, double f1,
                          std::size_t n) {
  const double dc = amplitude_db(std::abs(fir_response_at(h, 0.0)));
  return dc - max_magnitude_db(h, f0, f1, n);
}

std::vector<double> convolve(std::span<const double> a,
                             std::span<const double> b) {
  if (a.empty() || b.empty()) return {};
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  }
  return out;
}

std::vector<double> upsample_taps(std::span<const double> h, std::size_t m) {
  if (m == 0) throw std::invalid_argument("upsample_taps: m must be >= 1");
  if (h.empty()) return {};
  std::vector<double> out((h.size() - 1) * m + 1, 0.0);
  for (std::size_t i = 0; i < h.size(); ++i) out[i * m] = h[i];
  return out;
}

bool is_symmetric(std::span<const double> h, double tol) {
  for (std::size_t i = 0; i < h.size() / 2; ++i) {
    if (std::abs(h[i] - h[h.size() - 1 - i]) > tol) return false;
  }
  return true;
}

}  // namespace dsadc::dsp
