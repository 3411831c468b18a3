#include "src/fixedpoint/csd_optimize.h"

#include <cmath>
#include <complex>
#include <numbers>
#include <stdexcept>

#include "src/obs/trace.h"

namespace dsadc::fx {
namespace {

constexpr double kPi = std::numbers::pi;

struct DigitRef {
  std::size_t group;
  std::size_t digit;
};

bool taps_symmetric(std::span<const double> taps) {
  for (std::size_t i = 0; i < taps.size() / 2; ++i) {
    if (std::abs(taps[i] - taps[taps.size() - 1 - i]) > 1e-12) return false;
  }
  return true;
}

}  // namespace

OptimizedCsdTaps optimize_csd_taps(std::span<const double> taps, double fstop,
                                   double target_atten_db, int frac_bits,
                                   std::size_t grid) {
  DSADC_TRACE_SPAN("optimize_csd_taps");
  if (taps.empty()) throw std::invalid_argument("optimize_csd_taps: no taps");
  if (!(fstop > 0.0 && fstop < 0.5)) {
    throw std::invalid_argument("optimize_csd_taps: fstop out of range");
  }
  OptimizedCsdTaps out;
  out.taps.reserve(taps.size());
  for (double t : taps) out.taps.push_back(csd_encode(t, frac_bits));

  // Symmetric (linear-phase) inputs are optimized pairwise so symmetry -
  // and with it the exact linear phase - survives every removal.
  const bool symmetric = taps_symmetric(taps);
  std::vector<std::vector<std::size_t>> groups;
  if (symmetric) {
    for (std::size_t i = 0; i < taps.size() / 2; ++i) {
      groups.push_back({i, taps.size() - 1 - i});
    }
    if (taps.size() % 2 == 1) groups.push_back({taps.size() / 2});
  } else {
    for (std::size_t i = 0; i < taps.size(); ++i) groups.push_back({i});
  }

  // Stopband response on a dense grid, maintained incrementally.
  std::vector<std::complex<double>> h(grid, {0.0, 0.0});
  std::vector<std::vector<std::complex<double>>> basis;  // per tap
  basis.resize(taps.size());
  for (std::size_t k = 0; k < taps.size(); ++k) {
    basis[k].resize(grid);
    for (std::size_t gi = 0; gi < grid; ++gi) {
      const double f =
          fstop + (0.5 - fstop) * static_cast<double>(gi) / static_cast<double>(grid - 1);
      const double w = 2.0 * kPi * f * static_cast<double>(k);
      basis[k][gi] = {std::cos(w), -std::sin(w)};
    }
  }
  // Group basis: sum of member bases (a digit removal hits all members).
  std::vector<std::vector<std::complex<double>>> gbasis(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    gbasis[g].assign(grid, {0.0, 0.0});
    for (std::size_t m : groups[g]) {
      for (std::size_t gi = 0; gi < grid; ++gi) gbasis[g][gi] += basis[m][gi];
    }
  }
  double dc = 0.0;
  for (std::size_t k = 0; k < taps.size(); ++k) {
    const double v = out.taps[k].to_double();
    dc += v;
    for (std::size_t gi = 0; gi < grid; ++gi) h[gi] += v * basis[k][gi];
  }
  if (std::abs(dc) < 1e-12) {
    throw std::invalid_argument("optimize_csd_taps: zero DC gain");
  }
  const double limit =
      std::abs(dc) * std::pow(10.0, -target_atten_db / 20.0);

  const auto peak_after_removal = [&](std::size_t group, std::size_t digit) {
    const std::size_t rep = groups[group][0];
    const auto& d = out.taps[rep].digits[digit];
    const double delta = -static_cast<double>(d.sign) * std::ldexp(1.0, d.position);
    double peak = 0.0;
    for (std::size_t gi = 0; gi < grid; ++gi) {
      peak = std::max(peak, std::abs(h[gi] + delta * gbasis[group][gi]));
      if (peak >= limit) break;  // early out: this removal is too costly
    }
    return peak;
  };

  // Greedy loop: drop the (group) digit with the lowest resulting peak.
  for (;;) {
    double best_peak = limit;
    DigitRef best{0, 0};
    bool found = false;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::size_t rep = groups[g][0];
      for (std::size_t d = 0; d < out.taps[rep].digits.size(); ++d) {
        const double peak = peak_after_removal(g, d);
        if (peak < best_peak) {
          best_peak = peak;
          best = {g, d};
          found = true;
        }
      }
    }
    if (!found) break;
    // Apply the removal to every member of the group.
    const std::size_t rep = groups[best.group][0];
    const auto dd = out.taps[rep].digits[best.digit];
    const double delta = -static_cast<double>(dd.sign) * std::ldexp(1.0, dd.position);
    for (std::size_t gi = 0; gi < grid; ++gi) {
      h[gi] += delta * gbasis[best.group][gi];
    }
    for (std::size_t m : groups[best.group]) {
      out.taps[m].digits.erase(out.taps[m].digits.begin() +
                               static_cast<std::ptrdiff_t>(best.digit));
    }
  }

  // Final metrics.
  out.values.resize(taps.size());
  double dc2 = 0.0;
  for (std::size_t k = 0; k < taps.size(); ++k) {
    out.values[k] = out.taps[k].to_double();
    dc2 += out.values[k];
    out.digits += out.taps[k].nonzero_count();
    out.adders += out.taps[k].adder_cost();
  }
  double peak = 0.0;
  for (std::size_t gi = 0; gi < grid; ++gi) peak = std::max(peak, std::abs(h[gi]));
  out.stopband_atten_db =
      20.0 * std::log10(std::abs(dc2) / std::max(peak, 1e-300));
  return out;
}

}  // namespace dsadc::fx
