#include "src/modulator/ntf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "src/dsp/polynomial.h"
#include "src/obs/trace.h"

namespace dsadc::mod {
namespace {

constexpr double kPi = std::numbers::pi;

/// Evaluate Legendre polynomial P_n and derivative at x.
std::pair<double, double> legendre_eval(int n, double x) {
  double p0 = 1.0, p1 = x;
  if (n == 0) return {1.0, 0.0};
  for (int k = 2; k <= n; ++k) {
    const double p2 = ((2.0 * k - 1.0) * x * p1 - (k - 1.0) * p0) / k;
    p0 = p1;
    p1 = p2;
  }
  const double dp = n * (x * p1 - p0) / (x * x - 1.0);
  return {p1, dp};
}

/// z^-1 = e^{-j 2 pi f} at frequency f (cycles/sample).
std::complex<double> unit_zinv(double f) {
  const double w = 2.0 * kPi * f;
  return {std::cos(w), -std::sin(w)};
}

/// Points of the coarse H-inf scan: f = 0.5 k / kScanPoints, k = 0..N.
constexpr std::size_t kScanPoints = 8192;

/// z^-1 on the coarse scan grid. Every H-inf evaluation walks the same
/// grid, so the cos/sin pairs are computed once per process, with the
/// exact expressions response_at uses.
const std::vector<std::complex<double>>& scan_grid() {
  static const std::vector<std::complex<double>> grid = [] {
    std::vector<std::complex<double>> g(kScanPoints + 1);
    for (std::size_t k = 0; k <= kScanPoints; ++k) {
      g[k] = unit_zinv(0.5 * static_cast<double>(k) /
                       static_cast<double>(kScanPoints));
    }
    return g;
  }();
  return grid;
}

std::complex<double> response_at_zinv(const Ntf& ntf,
                                      std::complex<double> zinv) {
  std::complex<double> num(1.0, 0.0), den(1.0, 0.0);
  for (const auto& z : ntf.zeros) num *= (1.0 - z * zinv);
  for (const auto& p : ntf.poles) den *= (1.0 - p * zinv);
  return num / den;
}

/// Scan-grid points infinity_norm evaluates side by side.
constexpr std::size_t kScanLanes = 8;

/// |NTF| at the kScanLanes points `zinv`, bit-identical to
/// std::abs(response_at_zinv(ntf, zinv[l])).
void scan_magnitudes(const Ntf& ntf, const std::complex<double>* zinv,
                     double* mags) {
  // Local lane arrays: nothing aliases, so the lane loops vectorize.
  double xr[kScanLanes], xi[kScanLanes];
  double nr[kScanLanes], ni[kScanLanes], dr[kScanLanes], di[kScanLanes];
  for (std::size_t l = 0; l < kScanLanes; ++l) {
    xr[l] = zinv[l].real();
    xi[l] = zinv[l].imag();
    nr[l] = dr[l] = 1.0;
    ni[l] = di[l] = 0.0;
  }
  // p *= (1.0 - root * zinv) per root and lane, with std::complex's
  // operations: the complex product's plain formula, and 1.0 - t formed
  // as -t with 1.0 added to the real part. As for dsp::fir_magnitudes,
  // this TU is built for the baseline ISA, where nothing is FMA-fused.
  const auto multiply = [&xr, &xi](const std::vector<std::complex<double>>& roots,
                                   double (&pr)[kScanLanes],
                                   double (&pi)[kScanLanes]) {
    for (const std::complex<double>& z : roots) {
      const double a = z.real(), b = z.imag();
      for (std::size_t l = 0; l < kScanLanes; ++l) {
        const double tr = a * xr[l] - b * xi[l];
        const double ti = a * xi[l] + b * xr[l];
        const double ur = -tr + 1.0;
        const double ui = -ti;
        const double re = pr[l] * ur - pi[l] * ui;
        const double im = pr[l] * ui + pi[l] * ur;
        pr[l] = re;
        pi[l] = im;
      }
    }
  };
  multiply(ntf.zeros, nr, ni);
  multiply(ntf.poles, dr, di);
  for (std::size_t l = 0; l < kScanLanes; ++l) {
    // std::complex takes __muldc3's path only where a product is NaN in
    // both parts, and such a product stays NaN in both parts to the end.
    const bool fallback = (std::isnan(nr[l]) && std::isnan(ni[l])) ||
                          (std::isnan(dr[l]) && std::isnan(di[l]));
    mags[l] = fallback ? std::abs(response_at_zinv(ntf, zinv[l]))
                       : std::abs(std::complex<double>(nr[l], ni[l]) /
                                  std::complex<double>(dr[l], di[l]));
  }
}

}  // namespace

std::vector<double> legendre_roots(int n) {
  std::vector<double> roots(n);
  for (int i = 0; i < n; ++i) {
    // Chebyshev-node initial guess, then Newton.
    double x = std::cos(kPi * (i + 0.75) / (n + 0.5));
    for (int it = 0; it < 100; ++it) {
      const auto [p, dp] = legendre_eval(n, x);
      const double dx = p / dp;
      x -= dx;
      if (std::abs(dx) < 1e-15) break;
    }
    roots[i] = x;
  }
  // Sort ascending and symmetrize numerically.
  std::sort(roots.begin(), roots.end());
  for (int i = 0; i < n / 2; ++i) {
    const double m = 0.5 * (roots[n - 1 - i] - roots[i]);
    roots[i] = -m;
    roots[n - 1 - i] = m;
  }
  if (n % 2 == 1) roots[n / 2] = 0.0;
  return roots;
}

std::vector<double> Ntf::numerator() const {
  return dsp::poly_from_roots_zinv(zeros);
}

std::vector<double> Ntf::denominator() const {
  return dsp::poly_from_roots_zinv(poles);
}

std::complex<double> Ntf::response_at(double f) const {
  return response_at_zinv(*this, unit_zinv(f));
}

double Ntf::magnitude_at(double f) const { return std::abs(response_at(f)); }

double Ntf::infinity_norm() const {
  // Coarse sample, then local golden-section refinement around the peak.
  const std::size_t n = kScanPoints;
  const std::vector<std::complex<double>>& grid = scan_grid();
  double best = 0.0, best_f = 0.0;
  double mags[kScanLanes];
  for (std::size_t k0 = 0; k0 <= n; k0 += kScanLanes) {
    const std::size_t lanes = std::min(kScanLanes, n + 1 - k0);
    if (lanes == kScanLanes) {
      scan_magnitudes(*this, &grid[k0], mags);
    } else {
      for (std::size_t l = 0; l < lanes; ++l) {
        mags[l] = std::abs(response_at_zinv(*this, grid[k0 + l]));
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      if (mags[l] > best) {
        best = mags[l];
        best_f = 0.5 * static_cast<double>(k0 + l) / static_cast<double>(n);
      }
    }
  }
  double a = std::max(0.0, best_f - 0.5 / n);
  double b = std::min(0.5, best_f + 0.5 / n);
  const double gr = (std::sqrt(5.0) - 1.0) / 2.0;
  double c = b - gr * (b - a), d = a + gr * (b - a);
  for (int it = 0; it < 60; ++it) {
    if (magnitude_at(c) > magnitude_at(d)) {
      b = d;
    } else {
      a = c;
    }
    c = b - gr * (b - a);
    d = a + gr * (b - a);
  }
  return std::max(best, magnitude_at(0.5 * (a + b)));
}

double Ntf::inband_noise_power_gain(double osr, std::size_t grid) const {
  const double fb = 0.5 / osr;
  // Trapezoidal integral of |NTF|^2 over [0, fb], normalized by Nyquist
  // band 0.5 (white quantization noise density assumption).
  double acc = 0.0;
  for (std::size_t k = 0; k <= grid; ++k) {
    const double f = fb * static_cast<double>(k) / static_cast<double>(grid);
    const double m = magnitude_at(f);
    const double w = (k == 0 || k == grid) ? 0.5 : 1.0;
    acc += w * m * m;
  }
  acc *= fb / static_cast<double>(grid);
  return acc / 0.5;
}

Ntf synthesize_ntf(int order, double osr, double obg, bool optimize_zeros) {
  DSADC_TRACE_SPAN("synthesize_ntf");
  if (order < 1 || order > 8) {
    throw std::invalid_argument("synthesize_ntf: order must be in [1, 8]");
  }
  if (obg <= 1.0) {
    throw std::invalid_argument("synthesize_ntf: OBG must exceed 1");
  }
  Ntf ntf;
  // --- Zeros: unit circle, at Legendre-root positions scaled to the band.
  const double band_edge_w = kPi / osr;  // band edge in rad/sample
  ntf.zeros.reserve(order);
  if (optimize_zeros) {
    for (double x : legendre_roots(order)) {
      const double w = x * band_edge_w;
      ntf.zeros.emplace_back(std::cos(w), std::sin(w));
    }
  } else {
    for (int i = 0; i < order; ++i) ntf.zeros.emplace_back(1.0, 0.0);
  }
  // --- Poles: discrete Butterworth high-pass via bilinear transform,
  // cutoff tuned by bisection on the analog cutoff frequency so that
  // ||NTF||_inf == obg. Higher cutoff -> poles further from z = 1 ->
  // flatter denominator near Nyquist -> larger out-of-band gain.
  const auto poles_for = [order](double wc) {
    std::vector<std::complex<double>> poles;
    poles.reserve(order);
    for (int k = 0; k < order; ++k) {
      // Analog low-pass Butterworth poles on the left half plane.
      const double theta = kPi * (2.0 * k + 1.0) / (2.0 * order) + kPi / 2.0;
      const std::complex<double> s_lp(std::cos(theta), std::sin(theta));
      // LP -> HP: s_hp = wc / s_lp.
      const std::complex<double> s = wc / s_lp;
      // Bilinear transform with T = 2 (prewarp-free; wc is a search knob).
      const std::complex<double> z = (1.0 + s) / (1.0 - s);
      poles.push_back(z);
    }
    return poles;
  };

  // ||NTF||_inf for cutoff wc, exact whenever it is below `bound`. The
  // norm is at least |NTF| at every scan-grid point, so once the Nyquist
  // sample (where the high-pass response peaks on the increasing branch)
  // reaches `bound`, the full scan cannot change a `< bound` comparison
  // and that sample is returned instead.
  const auto gain_below = [&](double wc, double bound) {
    Ntf t = ntf;
    t.poles = poles_for(wc);
    const double nyquist =
        std::abs(response_at_zinv(t, scan_grid()[kScanPoints]));
    return nyquist >= bound ? nyquist : t.infinity_norm();
  };
  // Hinf(wc) is U-shaped: for tiny wc the pole cluster at z ~ 1 is not
  // cancelled by the spread zeros and the in-band gain explodes; past the
  // minimum, Hinf grows monotonically with wc (poles retreat toward the
  // origin). Locate the minimum by coarse log-scan, then bisect on the
  // increasing branch.
  double wc_min = 0.1;
  double g_min = gain_below(wc_min, std::numeric_limits<double>::infinity());
  for (double wc = 0.01; wc < 0.95; wc *= 1.25) {
    const double g = gain_below(wc, g_min);
    if (g < g_min) {
      g_min = g;
      wc_min = wc;
    }
  }
  if (g_min >= obg) {
    throw std::runtime_error(
        "synthesize_ntf: requested OBG below the minimum achievable for "
        "this order/OSR");
  }
  double lo = wc_min, hi = 0.999;
  if (gain_below(hi, obg) < obg) {
    throw std::runtime_error("synthesize_ntf: requested OBG too large");
  }
  // Invariant: Hinf(lo) < obg <= Hinf(hi). Once the midpoint rounds
  // onto an endpoint, every later step re-assigns that endpoint to itself,
  // so stopping there returns the same bits as running all 80 steps.
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    if (gain_below(mid, obg) < obg) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  ntf.poles = poles_for(0.5 * (lo + hi));
  return ntf;
}

double predict_sqnr_db(const Ntf& ntf, double osr, int quantizer_bits,
                       double amp) {
  // Mid-tread quantizer with 2^bits - 1 levels: step = 2 / (2^bits - 2).
  const double delta = 2.0 / (std::pow(2.0, quantizer_bits) - 2.0);
  const double noise_total = delta * delta / 12.0;
  const double inband = noise_total * ntf.inband_noise_power_gain(osr);
  const double psig = amp * amp / 2.0;
  return 10.0 * std::log10(psig / inband);
}

}  // namespace dsadc::mod
