#include "src/decimator/scaler.h"

#include <cmath>
#include <stdexcept>

#include "src/decimator/simd.h"

namespace dsadc::decim {
namespace {

/// The CSD encoding of `scale`, refused unless every shift-add term fits:
/// a scale is remote input (a CFG1 frame), and NaN, inf or a huge value
/// would otherwise reach the encoder's int conversion or shift an
/// `in_fmt`-wide sample past bit 63.
fx::Csd checked_scale_csd(double scale, const fx::Format& in_fmt,
                          int frac_bits, std::size_t max_digits) {
  if (!(std::isfinite(scale) && scale > 0.0)) {
    throw std::invalid_argument("ScalingStage: scale must be finite and > 0");
  }
  fx::Csd csd = fx::csd_encode_limited(scale, frac_bits, max_digits);
  // Digits are ordered most significant first.
  if (!csd.digits.empty() &&
      csd.digits.front().position + frac_bits + in_fmt.width > 63) {
    throw std::invalid_argument(
        "ScalingStage: scale too large for the input width");
  }
  return csd;
}

}  // namespace

ScalingStage::ScalingStage(double scale, fx::Format in_fmt, fx::Format out_fmt,
                           int frac_bits, std::size_t max_digits)
    : csd_(checked_scale_csd(scale, in_fmt, frac_bits, max_digits)),
      frac_bits_(frac_bits),
      in_fmt_(in_fmt),
      out_fmt_(out_fmt),
      rq_(in_fmt.frac + frac_bits, out_fmt, fx::Rounding::kRoundNearest,
          fx::event_counters("scaler_out")) {}

std::int64_t ScalingStage::push(std::int64_t in) const {
  // Horner-style shift-add evaluation of the CSD constant: process digits
  // from most significant to least, accumulating shifted partial sums.
  // acc carries frac = in.frac + frac_bits_ to keep all digit weights
  // integral.
  std::int64_t acc = 0;
  for (const auto& d : csd_.digits) {
    const int shift = d.position + frac_bits_;  // >= 0 by construction
    const std::int64_t term = (shift >= 0) ? (in << shift) : (in >> -shift);
    acc += d.sign > 0 ? term : -term;
  }
  static const fx::EventCounters& ec = fx::event_counters("scaler_out");
  return fx::requantize(acc, in_fmt_.frac + frac_bits_, out_fmt_,
                        fx::Rounding::kRoundNearest, fx::Overflow::kSaturate,
                        &ec);
}

std::vector<std::int64_t> ScalingStage::process(
    std::span<const std::int64_t> in) const {
  std::vector<std::int64_t> out;
  out.reserve(in.size());
  for (std::int64_t x : in) out.push_back(push(x));
  return out;
}

void ScalingStage::process_inplace(std::vector<std::int64_t>& data) const {
  // Same Horner digit walk as push(), with the requantize inlined and the
  // round/saturate events tallied per block instead of per sample.
  soa::RequantTally tally;
  simd::kernels().scaler_map(data.data(), data.size(), csd_.digits.data(),
                             csd_.digits.size(), frac_bits_, rq_, tally);
  tally.flush(rq_);
}

double scale_for_msa(double msa, double headroom) {
  if (!(msa > 0.0 && msa <= 1.0)) {
    throw std::invalid_argument("scale_for_msa: msa must be in (0, 1]");
  }
  return headroom / msa;
}

}  // namespace dsadc::decim
