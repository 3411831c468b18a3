#include "src/decimator/fir.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/decimator/simd.h"
#include "src/decimator/soa.h"

namespace dsadc::decim {

FixedTaps FixedTaps::from_real(std::span<const double> real_taps,
                               int frac_bits) {
  if (frac_bits < 0 || frac_bits > 60) {
    throw std::invalid_argument("FixedTaps: frac_bits out of range");
  }
  FixedTaps out;
  out.frac_bits = frac_bits;
  out.taps.reserve(real_taps.size());
  const double scale = std::ldexp(1.0, frac_bits);
  for (double t : real_taps) {
    const double v = std::nearbyint(t * scale);
    // The conversion is undefined for NaN, inf and |v| >= 2^63.
    if (!(std::abs(v) < 0x1p63)) {
      throw std::invalid_argument("FixedTaps: tap not finite or too large");
    }
    out.taps.push_back(static_cast<std::int64_t>(v));
  }
  return out;
}

int mac_bits(int in_width, std::span<const std::int64_t> taps) {
  // sum |t| saturates at 2^62, which already makes the result > 62.
  constexpr std::uint64_t kCap = std::uint64_t{1} << 62;
  std::uint64_t sum = 0;
  for (const std::int64_t t : taps) {
    const std::uint64_t mag = t < 0 ? 0 - static_cast<std::uint64_t>(t)
                                    : static_cast<std::uint64_t>(t);
    sum = std::min(kCap, sum + std::min(kCap, mag));
  }
  return (in_width - 1) + static_cast<int>(std::bit_width(sum));
}

namespace {

void check_mac_width(const char* who, const fx::Format& in_fmt,
                     const FixedTaps& taps) {
  if (mac_bits(in_fmt.width, taps.taps) > kMaxMacBits) {
    throw std::invalid_argument(std::string(who) +
                                ": accumulator would exceed 62 bits");
  }
}

}  // namespace

std::vector<double> FixedTaps::to_real() const {
  std::vector<double> out;
  out.reserve(taps.size());
  const double scale = std::ldexp(1.0, -frac_bits);
  for (std::int64_t t : taps) out.push_back(static_cast<double>(t) * scale);
  return out;
}

FirDecimator::FirDecimator(FixedTaps taps, int decimation, fx::Format in_fmt,
                           fx::Format out_fmt, fx::Rounding rounding)
    : taps_(std::move(taps)),
      decimation_(decimation),
      in_fmt_(in_fmt),
      out_fmt_(out_fmt),
      rounding_(rounding),
      delay_(taps_.size(), 0) {
  if (decimation_ < 1) throw std::invalid_argument("FirDecimator: decimation >= 1");
  if (taps_.taps.empty()) throw std::invalid_argument("FirDecimator: empty taps");
  check_mac_width("FirDecimator", in_fmt_, taps_);
}

void FirDecimator::reset() {
  std::fill(delay_.begin(), delay_.end(), 0);
  pos_ = 0;
  phase_ = 0;
}

bool FirDecimator::push(std::int64_t in, std::int64_t& out) {
  delay_[pos_] = in;
  const std::size_t newest = pos_;
  pos_ = (pos_ + 1) % delay_.size();

  const bool emit = (phase_ == 0);
  phase_ = (phase_ + 1) % decimation_;
  if (!emit) return false;

  // y[n] = sum_k taps[k] * x[n-k]; full-precision accumulation.
  std::int64_t acc = 0;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    const std::size_t idx = (newest + delay_.size() - k) % delay_.size();
    acc += taps_.taps[k] * delay_[idx];
  }
  static const fx::EventCounters& ec = fx::event_counters("fir_out");
  out = fx::requantize(acc, in_fmt_.frac + taps_.frac_bits, out_fmt_,
                       rounding_, fx::Overflow::kSaturate, &ec);
  return true;
}

std::vector<std::int64_t> FirDecimator::process(
    std::span<const std::int64_t> in) {
  std::vector<std::int64_t> out;
  out.reserve(in.size() / static_cast<std::size_t>(decimation_) + 1);
  std::int64_t y = 0;
  for (const std::int64_t x : in) {
    if (push(x, y)) out.push_back(y);
  }
  return out;
}

FirDecimatorBank::FirDecimatorBank(FixedTaps taps, int decimation,
                                   std::size_t channels, fx::Format in_fmt,
                                   fx::Format out_fmt, fx::Rounding rounding)
    : taps_(std::move(taps)),
      decimation_(decimation),
      channels_(channels),
      rq_(in_fmt.frac + taps_.frac_bits, out_fmt, rounding,
          fx::event_counters("fir_out")),
      delay_(taps_.size() * channels, 0),
      acc_(channels, 0) {
  if (decimation_ < 1) {
    throw std::invalid_argument("FirDecimatorBank: decimation >= 1");
  }
  if (taps_.taps.empty()) {
    throw std::invalid_argument("FirDecimatorBank: empty taps");
  }
  if (channels_ == 0) {
    throw std::invalid_argument("FirDecimatorBank: channels >= 1");
  }
  check_mac_width("FirDecimatorBank", in_fmt, taps_);
}

void FirDecimatorBank::reset() {
  std::fill(delay_.begin(), delay_.end(), 0);
  pos_ = 0;
  phase_ = 0;
}

void FirDecimatorBank::process_inplace(std::vector<std::int64_t>& data) {
  // The delay line plus the new block become one contiguous window of
  // (tap_count - 1 + frames) rows, so each emit position is a row of C
  // independent linear MACs (no per-tap circular modulo), accumulated tap
  // for tap in push() order; each output row is one inline saturating
  // requantize per lane with event tallies flushed in bulk (identical
  // totals to push()'s per-sample counting).
  const std::size_t C = channels_;
  if (data.size() % C != 0) {
    throw std::invalid_argument(
        "FirDecimatorBank: data size not a multiple of channels");
  }
  const std::size_t frames = data.size() / C;
  const std::size_t tap_count = taps_.size();

  // The prefix is the last tap_count - 1 rows in chronological order; row
  // pos_ itself (written tap_count frames ago) is out of every window.
  ext_.resize((tap_count - 1 + frames) * C);
  for (std::size_t j = 0; j + 1 < tap_count; ++j) {
    const std::size_t row = (pos_ + 1 + j) % tap_count;
    std::copy_n(delay_.data() + row * C, C, ext_.data() + j * C);
  }
  std::copy_n(data.data(), frames * C, ext_.data() + (tap_count - 1) * C);

  soa::RequantTally tally;

  const auto d = static_cast<std::size_t>(decimation_);
  const std::size_t first = (d - static_cast<std::size_t>(phase_)) % d;
  const std::size_t n_out = simd::kernels().fir_emit(
      data.data(), ext_.data(), frames, C, taps_.taps.data(), tap_count,
      first, d, acc_.data(), rq_, tally);
  tally.flush(rq_);
  data.resize(n_out * C);

  // Streaming state: only the last tap_count input rows survive in the
  // delay line; write exactly those (same final state as row-wise pushes).
  const std::size_t start = frames > tap_count ? frames - tap_count : 0;
  for (std::size_t i = start; i < frames; ++i) {
    const std::size_t row = (pos_ + i) % tap_count;
    std::copy_n(ext_.data() + (tap_count - 1 + i) * C, C,
                delay_.data() + row * C);
  }
  pos_ = (pos_ + frames) % tap_count;
  phase_ = static_cast<int>((static_cast<std::size_t>(phase_) + frames) % d);
}

PolyphaseHalfbandDecimator::PolyphaseHalfbandDecimator(FixedTaps taps,
                                                       fx::Format in_fmt,
                                                       fx::Format out_fmt)
    : frac_bits_(taps.frac_bits), in_fmt_(in_fmt), out_fmt_(out_fmt) {
  if (taps.size() % 4 != 3) {
    throw std::invalid_argument(
        "PolyphaseHalfbandDecimator: taps must have length 4J-1");
  }
  const std::size_t mid = taps.size() / 2;
  // Validate half-band structure on the integer taps.
  for (std::size_t i = 0; i < taps.size(); ++i) {
    if (i == mid) continue;
    const std::size_t off = i > mid ? i - mid : mid - i;
    if (off % 2 == 0 && taps.taps[i] != 0) {
      throw std::invalid_argument(
          "PolyphaseHalfbandDecimator: non-zero even-offset tap");
    }
  }
  even_.frac_bits = taps.frac_bits;
  for (std::size_t i = 0; i < taps.size(); i += 2) even_.taps.push_back(taps.taps[i]);
  center_ = taps.taps[mid];
  even_hist_.assign(even_.size(), 0);
  // Center offset in the odd branch: (mid - 1) / 2 delays.
  odd_hist_.assign(taps.size() / 4 + 1, 0);
}

void PolyphaseHalfbandDecimator::reset() {
  std::fill(even_hist_.begin(), even_hist_.end(), 0);
  std::fill(odd_hist_.begin(), odd_hist_.end(), 0);
  epos_ = opos_ = 0;
  phase_ = 0;
}

std::size_t PolyphaseHalfbandDecimator::macs_per_output() const {
  std::size_t nonzero = 0;
  for (std::int64_t t : even_.taps) {
    if (t != 0) ++nonzero;
  }
  return nonzero + 1;  // + center-tap multiply (a shift in hardware)
}

bool PolyphaseHalfbandDecimator::push(std::int64_t in, std::int64_t& out) {
  if (phase_ == 0) {
    // Even-indexed input sample: store, then emit y.
    even_hist_[epos_] = in;
    const std::size_t newest = epos_;
    epos_ = (epos_ + 1) % even_hist_.size();
    phase_ = 1;

    std::int64_t acc = 0;
    for (std::size_t j = 0; j < even_.size(); ++j) {
      const std::size_t idx =
          (newest + even_hist_.size() - j) % even_hist_.size();
      acc += even_.taps[j] * even_hist_[idx];
    }
    // Odd branch: center tap applied to x_odd[n - J]; odd_hist_ holds the
    // last J+1 odd-phase samples with opos_ pointing at the oldest.
    acc += center_ * odd_hist_[opos_];
    static const fx::EventCounters& ec = fx::event_counters("polyphase_hbf_out");
    out = fx::requantize(acc, in_fmt_.frac + frac_bits_, out_fmt_,
                         fx::Rounding::kRoundNearest, fx::Overflow::kSaturate,
                         &ec);
    return true;
  }
  // Odd-indexed sample: enqueue into the delay line.
  odd_hist_[opos_] = in;
  opos_ = (opos_ + 1) % odd_hist_.size();
  phase_ = 0;
  return false;
}

std::vector<std::int64_t> PolyphaseHalfbandDecimator::process(
    std::span<const std::int64_t> in) {
  std::vector<std::int64_t> out;
  out.reserve(in.size() / 2 + 1);
  std::int64_t y = 0;
  for (std::int64_t x : in) {
    if (push(x, y)) out.push_back(y);
  }
  return out;
}

}  // namespace dsadc::decim
