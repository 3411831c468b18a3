#include "src/filterdesign/saramaki.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <optional>
#include <stdexcept>

#include "src/dsp/chebyshev.h"
#include "src/dsp/linalg.h"
#include "src/dsp/freqz.h"
#include "src/dsp/parallel.h"
#include "src/filterdesign/halfband.h"
#include "src/obs/trace.h"

namespace dsadc::design {
namespace {

constexpr double kPi = std::numbers::pi;

/// FIR taps of the F2 subfilter: length 4 n2 - 1, taps f2[j]/2 at offsets
/// +-(2j-1) from the center, zero elsewhere (odd-offset structure).
std::vector<double> f2_taps(const std::vector<double>& f2) {
  const std::size_t n2 = f2.size();
  const std::size_t len = 4 * n2 - 1;
  const std::size_t mid = 2 * n2 - 1;
  std::vector<double> h(len, 0.0);
  for (std::size_t j = 1; j <= n2; ++j) {
    h[mid - (2 * j - 1)] = f2[j - 1] / 2.0;
    h[mid + (2 * j - 1)] = f2[j - 1] / 2.0;
  }
  return h;
}

/// Quantize a coefficient vector to CSD with the given precision/digits.
std::vector<dsadc::fx::Csd> quantize_csd(const std::vector<double>& v,
                                         int frac_bits,
                                         std::size_t max_digits) {
  std::vector<dsadc::fx::Csd> out;
  out.reserve(v.size());
  for (double c : v) {
    out.push_back(max_digits == 0
                      ? dsadc::fx::csd_encode(c, frac_bits)
                      : dsadc::fx::csd_encode_limited(c, frac_bits, max_digits));
  }
  return out;
}

std::vector<double> csd_values(const std::vector<dsadc::fx::Csd>& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const auto& c : v) out.push_back(c.to_double());
  return out;
}

/// Steps of the stopband grid [0.5 - fp, 0.5] on which optimize_f1 maps
/// the stopband to its image under 2 F2hat.
constexpr std::size_t kImageSteps = 4096;

/// cos((2j-1) w_k) over the stopband grid, for j = 1..cols: the terms of
/// f2_zero_phase, computed with its exact expressions. It depends only on
/// fp, so one table serves every F2 of a search with n2 <= cols.
struct StopbandCosTable {
  std::size_t cols = 0;
  std::vector<double> cosines;  ///< (kImageSteps + 1) rows of `cols`

  StopbandCosTable(double fp, std::size_t n2_max)
      : cols(n2_max), cosines((kImageSteps + 1) * n2_max) {
    for (std::size_t k = 0; k <= kImageSteps; ++k) {
      const double f = (0.5 - fp) + fp * static_cast<double>(k) /
                                        static_cast<double>(kImageSteps);
      const double w = 2.0 * kPi * f;
      for (std::size_t j = 1; j <= cols; ++j) {
        cosines[k * cols + j - 1] =
            std::cos(static_cast<double>(2 * j - 1) * w);
      }
    }
  }
};

/// Minimax design of the outer taps: approximate -0.5 on the stopband
/// image X = { 2 F2hat(w) : w in stopband } with sum_i f1_i T_{2i-1}(x)
/// (the composite's half-band symmetry makes the passband follow
/// automatically). Small dedicated Remez exchange in the x domain.
std::vector<double> optimize_f1(const std::vector<double>& f2,
                                std::size_t n1,
                                const StopbandCosTable& stopband) {
  // Stopband x image: continuous, so an interval [x_lo, x_hi]. Each row
  // is summed in f2_zero_phase's order, so x is its value bit for bit.
  double x_lo = 1.0, x_hi = -1.0;
  for (std::size_t k = 0; k <= kImageSteps; ++k) {
    const double* c = &stopband.cosines[k * stopband.cols];
    double acc = 0.0;
    for (std::size_t j = 0; j < f2.size(); ++j) acc += f2[j] * c[j];
    const double x = 2.0 * acc;
    x_lo = std::min(x_lo, x);
    x_hi = std::max(x_hi, x);
  }
  // Dense grid on [x_lo, x_hi].
  const std::size_t ng = 2048;
  std::vector<double> xs(ng);
  for (std::size_t k = 0; k < ng; ++k) {
    xs[k] = x_lo + (x_hi - x_lo) * static_cast<double>(k) /
                       static_cast<double>(ng - 1);
  }
  // Initial extrema: uniform.
  std::vector<std::size_t> ext(n1 + 1);
  for (std::size_t i = 0; i <= n1; ++i) ext[i] = i * (ng - 1) / n1;

  std::vector<double> f1(n1, 0.0);
  for (int iter = 0; iter < 40; ++iter) {
    // Solve for (f1, delta): sum_i f1_i T_{2i-1}(x_j) + (-1)^j d = -0.5.
    dsp::Matrix m(n1 + 1, n1 + 1);
    std::vector<double> rhs(n1 + 1, -0.5);
    for (std::size_t j = 0; j <= n1; ++j) {
      for (std::size_t i = 1; i <= n1; ++i) {
        m.at(j, i - 1) = dsp::chebyshev_t(2 * i - 1, xs[ext[j]]);
      }
      m.at(j, n1) = (j % 2 == 0) ? 1.0 : -1.0;
    }
    const std::vector<double> sol = dsp::solve_linear(std::move(m), std::move(rhs));
    for (std::size_t i = 0; i < n1; ++i) f1[i] = sol[i];

    // Error over the grid; exchange extrema.
    std::vector<double> err(ng);
    for (std::size_t k = 0; k < ng; ++k) {
      err[k] = dsp::chebyshev_odd_series(
                   std::span<const double>(f1).subspan(0), xs[k]) -
               (-0.5);
    }
    std::vector<std::size_t> cand;
    for (std::size_t k = 0; k < ng; ++k) {
      const bool edge = (k == 0) || (k + 1 == ng);
      const bool lok = (k == 0) || std::abs(err[k]) >= std::abs(err[k - 1]);
      const bool rok = (k + 1 == ng) || std::abs(err[k]) >= std::abs(err[k + 1]);
      if (edge || (lok && rok)) cand.push_back(k);
    }
    std::vector<std::size_t> alt;
    for (std::size_t idx : cand) {
      if (!alt.empty() && (err[alt.back()] > 0) == (err[idx] > 0)) {
        if (std::abs(err[idx]) > std::abs(err[alt.back()])) alt.back() = idx;
      } else {
        alt.push_back(idx);
      }
    }
    while (alt.size() > n1 + 1) {
      if (std::abs(err[alt.front()]) < std::abs(err[alt.back()])) {
        alt.erase(alt.begin());
      } else {
        alt.pop_back();
      }
    }
    if (alt.size() < n1 + 1) break;
    if (std::equal(alt.begin(), alt.end(), ext.begin(), ext.end())) break;
    ext = std::move(alt);
  }
  return f1;
}

void check_passband_edge(double fp) {
  if (!(fp > 0.0 && fp < 0.25)) {
    throw std::invalid_argument("design_saramaki_hbf: fp must be in (0, 0.25)");
  }
}

/// F2 zero-phase coefficients: a half-band of length 4 n2 - 1 minus its
/// center tap, so that F2hat ~ +0.5 on [0, fp] and -0.5 on the mirror
/// band. Depends only on (n2, fp), not on the coefficient quantization.
std::vector<double> design_f2(std::size_t n2, double fp) {
  const HalfbandResult sub = design_halfband(n2, fp);
  std::vector<double> f2(n2, 0.0);
  const std::size_t mid = 2 * n2 - 1;
  for (std::size_t j = 1; j <= n2; ++j) {
    f2[j - 1] = 2.0 * sub.taps[mid + (2 * j - 1)];  // zero-phase coeff
  }
  return f2;
}

/// One (n1, n2, digit budget) candidate up to its adder count: quantized
/// F2, the F1 fit against it, and the CSD encodings. The composite taps
/// and their response (the costly part) are left to compose_and_measure.
SaramakiHbf quantized_candidate(std::size_t n1, const std::vector<double>& f2,
                                double fp, const StopbandCosTable& stopband,
                                int frac_bits, std::size_t max_digits) {
  SaramakiHbf out;
  out.n1 = n1;
  out.n2 = f2.size();
  out.passband_edge = fp;
  out.f2 = f2;
  // Quantize F2 first; the F1 design below absorbs its quantization error.
  out.f2_csd = quantize_csd(out.f2, frac_bits, max_digits);
  // Outer taps: minimax fit of the composite stopband against the
  // quantized subfilter's frequency warping (the half-band symmetry of the
  // structure makes the passband mirror the stopband exactly). The fit is
  // done in the Chebyshev basis and converted to the power-basis taps the
  // cascade hardware actually applies.
  out.f1 = chebyshev_to_power_basis(
      optimize_f1(csd_values(out.f2_csd), n1, stopband));
  out.f1_csd = quantize_csd(out.f1, frac_bits, max_digits);
  out.adder_count = saramaki_structural_adders(n1, out.n2) +
                    dsadc::fx::total_adder_cost(out.f1_csd) +
                    dsadc::fx::total_adder_cost(out.f2_csd);
  return out;
}

/// Compose the quantized cascade and measure its stopband attenuation.
void compose_and_measure(SaramakiHbf& h) {
  h.taps = saramaki_impulse_response(csd_values(h.f1_csd),
                                     csd_values(h.f2_csd));
  h.stopband_atten_db =
      dsp::min_attenuation_db(h.taps, 0.5 - h.passband_edge, 0.5);
}

}  // namespace

double f2_zero_phase(const std::vector<double>& f2, double f) {
  const double w = 2.0 * kPi * f;
  double acc = 0.0;
  for (std::size_t j = 1; j <= f2.size(); ++j) {
    acc += f2[j - 1] * std::cos(static_cast<double>(2 * j - 1) * w);
  }
  return acc;
}

double saramaki_zero_phase(const std::vector<double>& f1,
                           const std::vector<double>& f2, double f) {
  const double x = 2.0 * f2_zero_phase(f2, f);
  double acc = 0.5;
  double xp = x;  // x^(2i-1)
  for (std::size_t i = 1; i <= f1.size(); ++i) {
    acc += f1[i - 1] * xp;
    xp *= x * x;
  }
  return acc;
}

std::vector<double> chebyshev_to_power_basis(const std::vector<double>& c) {
  const std::size_t n1 = c.size();
  std::vector<double> p(n1, 0.0);
  for (std::size_t i = 1; i <= n1; ++i) {
    const std::vector<double> tc = dsp::chebyshev_t_coeffs(2 * i - 1);
    for (std::size_t k = 1; k <= i; ++k) {
      p[k - 1] += c[i - 1] * tc[2 * k - 1];
    }
  }
  return p;
}

std::vector<double> saramaki_impulse_response(const std::vector<double>& f1,
                                              const std::vector<double>& f2) {
  const std::size_t n1 = f1.size();
  const std::size_t n2 = f2.size();
  const std::size_t d2 = 2 * n2 - 1;              // F2 group delay
  const std::size_t big_d = (2 * n1 - 1) * d2;    // composite group delay
  const std::vector<double> hf2 = f2_taps(f2);

  std::vector<double> h(2 * big_d + 1, 0.0);
  h[big_d] += 0.5;  // center 0.5 z^-D path

  // Branch i taps: f1_i * (2 F2)^(2i-1), aligned to the composite delay D
  // (f1 is in the power basis - exactly what the cascade hardware taps).
  std::vector<double> two_h(hf2.size());
  for (std::size_t t = 0; t < hf2.size(); ++t) two_h[t] = 2.0 * hf2[t];
  std::vector<double> pk{1.0};
  for (std::size_t k = 1; k <= 2 * n1 - 1; ++k) {
    pk = dsp::convolve(pk, two_h);
    if (k % 2 == 0) continue;
    const std::size_t i = (k + 1) / 2;  // branch index
    const std::size_t shift = big_d - k * d2;
    for (std::size_t t = 0; t < pk.size(); ++t) {
      h[shift + t] += f1[i - 1] * pk[t];
    }
  }
  return h;
}

std::size_t saramaki_structural_adders(std::size_t n1, std::size_t n2) {
  // Per F2 instance: n2 symmetric pre-adders (pairs of equal taps) plus
  // (n2 - 1) adders to sum the products. (2 n1 - 1) instances in cascade.
  const std::size_t per_f2 = n2 + (n2 - 1);
  // Outer network: n1 branch outputs plus the 0.5 delay path -> n1 adders.
  return (2 * n1 - 1) * per_f2 + n1;
}

SaramakiHbf design_saramaki_hbf(std::size_t n1, std::size_t n2, double fp,
                                int frac_bits, std::size_t max_digits) {
  DSADC_TRACE_SPAN("design_saramaki_hbf");
  if (n1 < 1 || n1 > 6 || n2 < 2 || n2 > 16) {
    throw std::invalid_argument("design_saramaki_hbf: unsupported (n1, n2)");
  }
  check_passband_edge(fp);
  SaramakiHbf out = quantized_candidate(n1, design_f2(n2, fp), fp,
                                        StopbandCosTable(fp, n2), frac_bits,
                                        max_digits);
  compose_and_measure(out);
  out.passband_ripple_db = dsp::passband_ripple_db(out.taps, 0.0, fp);
  return out;
}

SaramakiHbf design_saramaki_hbf_auto(double fp, double atten_db,
                                     int frac_bits) {
  DSADC_TRACE_SPAN("design_saramaki_hbf_auto");
  check_passband_edge(fp);
  // Candidate structures, ordered roughly by hardware cost; digit budgets
  // from lean to exact.
  const std::pair<std::size_t, std::size_t> structures[] = {
      {2, 4}, {2, 5}, {3, 5}, {3, 6}, {3, 7}, {4, 7}, {4, 8}, {4, 10}, {5, 12}};
  const std::size_t digit_budgets[] = {3, 4, 5, 0};

  // Exact branch-and-bound on the adder count. Only a candidate with
  // strictly fewer adders than the incumbent replaces it, and a
  // candidate's count is its structure's count plus non-negative CSD
  // costs -- both known before the composite is built. A structure whose
  // structural count already reaches the incumbent is skipped whole, and
  // a candidate that cannot win skips the compose/measure sweeps. Every
  // skipped candidate would have been rejected by the full search, so the
  // result is the one the exhaustive scan returns.
  std::size_t n2_max = 0;
  for (const auto& st : structures) n2_max = std::max(n2_max, st.second);
  const StopbandCosTable stopband(fp, n2_max);
  std::optional<SaramakiHbf> best;
  for (const auto& [n1, n2] : structures) {
    if (best && saramaki_structural_adders(n1, n2) >= best->adder_count) {
      continue;
    }
    const std::vector<double> f2 = design_f2(n2, fp);  // digit-independent
    // The scan below needs every budget's adder count, so the budgets are
    // quantized side by side: the same work as one at a time, and each
    // slot holds what the serial call returns.
    std::array<SaramakiHbf, std::size(digit_budgets)> cands;
    dsp::parallel_for_index(cands.size(), [&](std::size_t k) {
      cands[k] = quantized_candidate(n1, f2, fp, stopband, frac_bits,
                                     digit_budgets[k]);
    });
    for (SaramakiHbf& cand : cands) {
      if (best && cand.adder_count >= best->adder_count) continue;
      compose_and_measure(cand);
      if (cand.stopband_atten_db < atten_db) continue;
      best = std::move(cand);
    }
  }
  if (!best) {
    throw std::runtime_error(
        "design_saramaki_hbf_auto: attenuation target unreachable with "
        "candidate structures");
  }
  best->passband_ripple_db = dsp::passband_ripple_db(best->taps, 0.0, fp);
  return std::move(*best);
}

}  // namespace dsadc::design
