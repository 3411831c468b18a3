// Bit-true fixed-point FIR filtering / decimation.
//
// Generic symmetric-FIR machinery shared by the halfband (direct/polyphase
// form), the equalizer, and any reconfigured chain. Coefficients are held
// as integers with a common fractional scale; the MAC accumulates in full
// int64 precision and the output is requantized to the requested format.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/decimator/soa.h"
#include "src/fixedpoint/fixed.h"

namespace dsadc::decim {

/// Quantized coefficient set: integer taps with 2^-frac_bits weighting.
struct FixedTaps {
  std::vector<std::int64_t> taps;
  int frac_bits = 0;

  /// round(t * 2^frac_bits) per tap. Throws std::invalid_argument for
  /// frac_bits outside [0, 60] and for a tap that is not finite or whose
  /// scaled value does not fit in int64_t.
  static FixedTaps from_real(std::span<const double> real_taps, int frac_bits);
  std::vector<double> to_real() const;
  std::size_t size() const { return taps.size(); }
};

/// Worst-case accumulator width of an int64 MAC over `taps` fed samples
/// of an `in_width`-bit format: |x| <= 2^(in_width - 1), so every partial
/// sum, in any order, stays below 2^((in_width - 1) + bit_width(sum |t|)).
/// The block kernels and push() accumulate in int64_t, so a stage needs
/// this to be <= 62 (kMaxMacBits).
int mac_bits(int in_width, std::span<const std::int64_t> taps);
inline constexpr int kMaxMacBits = 62;

/// FIR filter with optional decimation, full-precision accumulator.
class FirDecimator {
 public:
  /// `out_fmt` is the output sample format; the accumulator's fractional
  /// part (input frac + coeff frac) is rounded into it, saturating (like
  /// every FIR datapath in the chain). Throws std::invalid_argument when
  /// mac_bits(in_fmt.width, taps) exceeds kMaxMacBits.
  FirDecimator(FixedTaps taps, int decimation, fx::Format in_fmt,
               fx::Format out_fmt,
               fx::Rounding rounding = fx::Rounding::kRoundNearest);

  /// Push one input sample; true when an output is produced.
  bool push(std::int64_t in, std::int64_t& out);

  /// push() over a block, returning the emitted samples.
  std::vector<std::int64_t> process(std::span<const std::int64_t> in);

  void reset();

  const FixedTaps& taps() const { return taps_; }
  int decimation() const { return decimation_; }
  const fx::Format& input_format() const { return in_fmt_; }
  const fx::Format& output_format() const { return out_fmt_; }

 private:
  FixedTaps taps_;
  int decimation_;
  fx::Format in_fmt_, out_fmt_;
  fx::Rounding rounding_;
  std::vector<std::int64_t> delay_;  ///< circular history
  std::size_t pos_ = 0;
  int phase_ = 0;
};

/// N-channel lockstep FIR/decimator bank over channel-interleaved frames
/// (element index = frame * channels + channel); the block form of the
/// stage at every width, 1 included. Per-channel accumulation order
/// matches FirDecimator::push tap for tap, so each lane is bit-identical
/// to it (outputs and fx event counters alike).
class FirDecimatorBank {
 public:
  /// Saturating output path only (what every chain stage uses).
  FirDecimatorBank(FixedTaps taps, int decimation, std::size_t channels,
                   fx::Format in_fmt, fx::Format out_fmt,
                   fx::Rounding rounding = fx::Rounding::kRoundNearest);

  /// `data.size()` must be a multiple of `channels`; input frames on
  /// entry, emitted (decimated) frames on return.
  void process_inplace(std::vector<std::int64_t>& data);

  void reset();

  std::size_t channels() const { return channels_; }
  const FixedTaps& taps() const { return taps_; }

 private:
  FixedTaps taps_;
  int decimation_;
  std::size_t channels_;
  soa::Requant rq_;                  ///< output requantizer (fir_out)
  std::vector<std::int64_t> delay_;  ///< tap_count x channels rows, circular
  std::vector<std::int64_t> ext_;    ///< window scratch rows
  std::vector<std::int64_t> acc_;    ///< per-channel accumulator row
  std::size_t pos_ = 0;              ///< row index of the next write
  int phase_ = 0;
};

/// Polyphase decimate-by-2 FIR specialized for half-band taps: the odd
/// branch is a pure delay (center tap), so only the even branch multiplies.
/// Produces results bit-identical to FirDecimator over the same taps while
/// modeling the hardware the paper builds (half the MACs).
class PolyphaseHalfbandDecimator {
 public:
  /// `taps` must have half-band structure (length 4J-1).
  PolyphaseHalfbandDecimator(FixedTaps taps, fx::Format in_fmt,
                             fx::Format out_fmt);

  bool push(std::int64_t in, std::int64_t& out);
  std::vector<std::int64_t> process(std::span<const std::int64_t> in);
  void reset();

  /// Multiplications per output sample (the hardware saving vs direct).
  std::size_t macs_per_output() const;

 private:
  FixedTaps even_;                       ///< even-branch taps (nonzero half)
  std::int64_t center_ = 0;              ///< center tap value
  int frac_bits_ = 0;
  fx::Format in_fmt_, out_fmt_;
  std::vector<std::int64_t> even_hist_;  ///< even-phase history
  std::vector<std::int64_t> odd_hist_;   ///< odd-phase history (delay line)
  std::size_t epos_ = 0, opos_ = 0;
  int phase_ = 0;
};

}  // namespace dsadc::decim
