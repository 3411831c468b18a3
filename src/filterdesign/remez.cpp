#include "src/filterdesign/remez.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numbers>
#include <stdexcept>

#include "src/dsp/linalg.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace dsadc::design {
namespace {

constexpr double kPi = std::numbers::pi;

/// Dense approximation grid point.
struct GridPoint {
  double f;     ///< cycles/sample
  double x;     ///< cos(2 pi f), the Chebyshev variable
  double d;     ///< (transformed) desired value
  double w;     ///< (transformed) weight
};

/// Barycentric interpolation state over the current extremal set.
class Barycentric {
 public:
  /// `x`, `c` are the abscissae and function values at the interpolation
  /// nodes (the first r of the r+1 extrema).
  Barycentric(std::vector<double> x, std::vector<double> c)
      : x_(std::move(x)), c_(std::move(c)), wts_(x_.size()) {
    const std::size_t r = x_.size();
    for (std::size_t i = 0; i < r; ++i) {
      double prod = 1.0;
      for (std::size_t j = 0; j < r; ++j) {
        if (j != i) prod *= (x_[i] - x_[j]);
      }
      wts_[i] = 1.0 / prod;
    }
  }

  double eval(double x) const {
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < x_.size(); ++i) {
      const double dx = x - x_[i];
      if (std::abs(dx) < 1e-14) return c_[i];
      const double t = wts_[i] / dx;
      num += t * c_[i];
      den += t;
    }
    return num / den;
  }

 private:
  std::vector<double> x_, c_, wts_;
};

/// Compute the equiripple level delta for the extremal set.
double compute_delta(const std::vector<GridPoint>& grid,
                     const std::vector<std::size_t>& ext) {
  const std::size_t m = ext.size();  // r + 1
  // gamma_i = 1 / prod_{j != i} (x_i - x_j), scaled to avoid overflow by
  // the standard pairwise normalization.
  std::vector<double> gamma(m, 1.0);
  for (std::size_t i = 0; i < m; ++i) {
    double prod = 1.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      double diff = grid[ext[i]].x - grid[ext[j]].x;
      // Normalize factors toward 1 to keep the product in range.
      prod *= diff * 2.0;
    }
    gamma[i] = 1.0 / prod;
  }
  double num = 0.0, den = 0.0;
  double sign = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    num += gamma[i] * grid[ext[i]].d;
    den += sign * gamma[i] / grid[ext[i]].w;
    sign = -sign;
  }
  if (den == 0.0) throw std::runtime_error("remez: degenerate extremal set");
  return num / den;
}

}  // namespace

Band const_band(double f0, double f1, double desired, double weight) {
  Band b;
  b.f0 = f0;
  b.f1 = f1;
  b.desired = [desired](double) { return desired; };
  b.weight = [weight](double) { return weight; };
  return b;
}

RemezResult remez(std::size_t num_taps, std::span<const Band> bands,
                  int grid_density, int max_iterations) {
  DSADC_TRACE_SPAN("remez");
  if (num_taps < 3) throw std::invalid_argument("remez: need at least 3 taps");
  if (bands.empty()) throw std::invalid_argument("remez: need at least one band");
  for (const auto& b : bands) {
    if (!(0.0 <= b.f0 && b.f0 < b.f1 && b.f1 <= 0.5)) {
      throw std::invalid_argument("remez: malformed band edges");
    }
    if (!b.desired || !b.weight) {
      throw std::invalid_argument("remez: band lacks desired/weight function");
    }
  }
  const bool type2 = (num_taps % 2) == 0;
  // Number of cosine basis functions.
  const std::size_t r = type2 ? num_taps / 2 : (num_taps - 1) / 2 + 1;

  // --- Dense grid.
  double total_width = 0.0;
  for (const auto& b : bands) total_width += (b.f1 - b.f0);
  const double df =
      total_width / (static_cast<double>(grid_density) * static_cast<double>(r));
  std::vector<GridPoint> grid;
  grid.reserve(static_cast<std::size_t>(total_width / df) + 8 * bands.size());
  for (const auto& b : bands) {
    const auto npts = std::max<std::size_t>(
        8, static_cast<std::size_t>(std::ceil((b.f1 - b.f0) / df)));
    for (std::size_t i = 0; i <= npts; ++i) {
      double f = b.f0 + (b.f1 - b.f0) * static_cast<double>(i) /
                            static_cast<double>(npts);
      // Type II has a structural zero at f = 0.5; keep the grid away.
      if (type2 && f > 0.5 - 1e-4) f = 0.5 - 1e-4;
      GridPoint g;
      g.f = f;
      g.x = std::cos(2.0 * kPi * f);
      g.d = b.desired(f);
      g.w = b.weight(f);
      if (g.w <= 0.0) throw std::invalid_argument("remez: weight must be positive");
      if (type2) {
        // H(w) = cos(w/2) P(w): approximate P with transformed D and W.
        const double c = std::cos(kPi * f);
        g.d /= c;
        g.w *= c;
      }
      grid.push_back(g);
    }
  }
  // Deduplicate identical abscissae (can happen at shared band edges).
  std::sort(grid.begin(), grid.end(),
            [](const GridPoint& a, const GridPoint& b) { return a.f < b.f; });
  grid.erase(std::unique(grid.begin(), grid.end(),
                         [](const GridPoint& a, const GridPoint& b) {
                           return std::abs(a.f - b.f) < 1e-12;
                         }),
             grid.end());
  if (grid.size() < r + 2) throw std::invalid_argument("remez: grid too coarse");

  // Mark band edges: they are extrema of the restricted problem and the
  // optimal error almost always peaks there, so they are always candidates.
  std::vector<bool> is_edge(grid.size(), false);
  is_edge.front() = true;
  is_edge.back() = true;
  for (const auto& b : bands) {
    for (double fe : {b.f0, b.f1}) {
      // Find the grid point nearest to the band edge.
      std::size_t best = 0;
      double bestd = 1e9;
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const double d = std::abs(grid[i].f - fe);
        if (d < bestd) {
          bestd = d;
          best = i;
        }
      }
      is_edge[best] = true;
    }
  }

  // --- Initial extrema: uniformly indexed.
  std::vector<std::size_t> ext(r + 1);
  for (std::size_t i = 0; i <= r; ++i) {
    ext[i] = i * (grid.size() - 1) / r;
  }

  RemezResult result;
  double delta = 0.0;
  std::vector<double> error(grid.size());
  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    delta = compute_delta(grid, ext);

    // Interpolate A(x) through the first r extrema with the alternating
    // deviation removed.
    std::vector<double> xs(r), cs(r);
    double sign = 1.0;
    for (std::size_t i = 0; i < r; ++i) {
      xs[i] = grid[ext[i]].x;
      cs[i] = grid[ext[i]].d - sign * delta / grid[ext[i]].w;
      sign = -sign;
    }
    const Barycentric interp(xs, cs);

    // Weighted error on the dense grid.
    for (std::size_t i = 0; i < grid.size(); ++i) {
      error[i] = grid[i].w * (interp.eval(grid[i].x) - grid[i].d);
    }

    // Find local extrema candidates of the error. Domain endpoints are
    // always extrema of the restricted problem, so include them
    // unconditionally; interior points qualify when |E| peaks locally.
    std::vector<std::size_t> cand;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const bool left_ok = (i == 0) || std::abs(error[i]) >= std::abs(error[i - 1]);
      const bool right_ok =
          (i + 1 == grid.size()) || std::abs(error[i]) >= std::abs(error[i + 1]);
      if ((is_edge[i] || (left_ok && right_ok)) && std::abs(error[i]) > 1e-15) {
        cand.push_back(i);
      }
    }
    if (cand.size() < r + 1) {
      // Degenerate (error below numerical resolution everywhere, e.g. a
      // heavily over-parameterized band): accept the current interpolant.
      result.converged = true;
      break;
    }
    // Enforce sign alternation: among consecutive same-sign candidates keep
    // the largest error magnitude.
    std::vector<std::size_t> alt;
    for (std::size_t idx : cand) {
      if (!alt.empty() && (error[alt.back()] > 0) == (error[idx] > 0)) {
        if (std::abs(error[idx]) > std::abs(error[alt.back()])) alt.back() = idx;
      } else {
        alt.push_back(idx);
      }
    }
    // Trim to exactly r+1, dropping the weaker end point each time.
    while (alt.size() > r + 1) {
      if (std::abs(error[alt.front()]) < std::abs(error[alt.back()])) {
        alt.erase(alt.begin());
      } else {
        alt.pop_back();
      }
    }
    if (alt.size() < r + 1) {
      result.converged = true;  // cannot improve further on this grid
      break;
    }

    // Convergence: largest error close to |delta|.
    double emax = 0.0;
    for (std::size_t idx : alt) emax = std::max(emax, std::abs(error[idx]));
    const bool same = std::equal(alt.begin(), alt.end(), ext.begin(), ext.end());
    DSADC_OBS_COUNT("remez.iterations");
    DSADC_LOG_DEBUG("remez", "iter %d delta=%.6e emax=%.6e same=%d ext=%zu",
                    iter, delta, emax, static_cast<int>(same), alt.size());
    ext = std::move(alt);
    if (same || (emax - std::abs(delta)) < 1e-6 * std::abs(delta) + 1e-15) {
      result.converged = true;
      // One final delta with the final extrema.
      delta = compute_delta(grid, ext);
      break;
    }
  }
  result.delta = std::abs(delta);

  // --- Recover cosine coefficients a_k of A(w) = sum a_k cos(k w) by the
  // discrete cosine projection: A is a degree-(r-1) polynomial in cos(w),
  // so the M-point quadrature below (M >= 2r) is exact; this is the same
  // extraction McClellan's firpm performs via an inverse DFT.
  std::vector<double> xs(r), cs(r);
  double sign = 1.0;
  for (std::size_t i = 0; i < r; ++i) {
    xs[i] = grid[ext[i]].x;
    cs[i] = grid[ext[i]].d - sign * delta / grid[ext[i]].w;
    sign = -sign;
  }
  const Barycentric interp(xs, cs);
  const std::size_t big_m = 8 * r;
  // Samples of A over a full period: A(w_j), w_j = 2 pi j / M, using the
  // even symmetry A(2 pi - w) = A(w).
  std::vector<double> samples(big_m);
  for (std::size_t j = 0; j <= big_m / 2; ++j) {
    const double wj = 2.0 * kPi * static_cast<double>(j) / static_cast<double>(big_m);
    samples[j] = interp.eval(std::cos(wj));
    if (j != 0 && j != big_m / 2) samples[big_m - j] = samples[j];
  }
  std::vector<double> a(r, 0.0);
  for (std::size_t k = 0; k < r; ++k) {
    double acc = 0.0;
    for (std::size_t j = 0; j < big_m; ++j) {
      const double wj = 2.0 * kPi * static_cast<double>(j) / static_cast<double>(big_m);
      acc += samples[j] * std::cos(static_cast<double>(k) * wj);
    }
    a[k] = (k == 0 ? 1.0 : 2.0) * acc / static_cast<double>(big_m);
  }

  // --- Cosine coefficients -> impulse response.
  result.taps.assign(num_taps, 0.0);
  if (!type2) {
    const std::size_t mid = (num_taps - 1) / 2;
    result.taps[mid] = a[0];
    for (std::size_t k = 1; k < r; ++k) {
      result.taps[mid - k] = a[k] / 2.0;
      result.taps[mid + k] = a[k] / 2.0;
    }
  } else {
    // H(w) = cos(w/2) sum b_k cos(k w) = sum bt_m cos((m - 1/2) w),
    // bt_1 = b_0 + b_1/2, bt_m = (b_{m-1} + b_m)/2, bt_r = b_{r-1}/2.
    std::vector<double> bt(r + 1, 0.0);
    bt[1] = a[0] + (r > 1 ? a[1] / 2.0 : 0.0);
    for (std::size_t mI = 2; mI + 1 <= r; ++mI) {
      bt[mI] = (a[mI - 1] + a[mI]) / 2.0;
    }
    if (r >= 2) bt[r] = a[r - 1] / 2.0;
    // h[r - m] = h[r + m - 1] = bt_m / 2.
    for (std::size_t mI = 1; mI <= r; ++mI) {
      result.taps[r - mI] = bt[mI] / 2.0;
      result.taps[r + mI - 1] = bt[mI] / 2.0;
    }
  }
  return result;
}

RemezResult remez_lowpass(std::size_t num_taps, double fpass, double fstop,
                          double wpass, double wstop) {
  const Band bands[] = {const_band(0.0, fpass, 1.0, wpass),
                        const_band(fstop, 0.5, 0.0, wstop)};
  return remez(num_taps, bands);
}

std::size_t remez_order_estimate(double ripple_db, double atten_db,
                                 double transition_width) {
  // Kaiser's estimate: N ~ (-20 log10 sqrt(d1 d2) - 13) / (14.6 df).
  const double d1 = (std::pow(10.0, ripple_db / 20.0) - 1.0) /
                    (std::pow(10.0, ripple_db / 20.0) + 1.0);
  const double d2 = std::pow(10.0, -atten_db / 20.0);
  const double n =
      (-20.0 * std::log10(std::sqrt(d1 * d2)) - 13.0) / (14.6 * transition_width);
  return static_cast<std::size_t>(std::ceil(std::max(n, 3.0))) + 1;
}

}  // namespace dsadc::design
