// Scaling stage (Section VI of the paper).
//
// The modulator output swings only up to the MSA fraction of full scale,
// so after the noise has been filtered the signal is multiplied by
// S ~ 1/MSA (slightly less, to avoid overflow) to restore full dynamic
// range. The constant is CSD-encoded and evaluated with nested Horner
// shift-adds -- no multiplier.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/decimator/soa.h"
#include "src/fixedpoint/csd.h"
#include "src/fixedpoint/fixed.h"

namespace dsadc::decim {

class ScalingStage {
 public:
  /// `scale` is the real gain (e.g. 1.0825 for MSA = 0.81 with margin),
  /// CSD-encoded with `max_digits` nonzero digits at `frac_bits` precision.
  ScalingStage(double scale, fx::Format in_fmt, fx::Format out_fmt,
               int frac_bits = 12, std::size_t max_digits = 6);

  std::int64_t push(std::int64_t in) const;
  std::vector<std::int64_t> process(std::span<const std::int64_t> in) const;

  /// Element-wise block kernel over a caller-owned buffer (no allocation,
  /// inline requantize with bulk event counting). The stage is stateless
  /// and channel-oblivious, so the same call serves single-channel blocks
  /// and channel-interleaved bank frames alike; bit-identical to push().
  void process_inplace(std::vector<std::int64_t>& data) const;

  const fx::Csd& csd() const { return csd_; }
  /// The gain actually applied after CSD quantization.
  double effective_scale() const { return csd_.to_double(); }
  /// Adders in the Horner shift-add network.
  std::size_t adder_count() const { return csd_.adder_cost(); }

  const fx::Format& input_format() const { return in_fmt_; }
  const fx::Format& output_format() const { return out_fmt_; }

 private:
  fx::Csd csd_;
  int frac_bits_;
  fx::Format in_fmt_, out_fmt_;
  soa::Requant rq_;  ///< block-kernel output requantizer (scaler_out)
};

/// Pick a scale factor for a measured MSA: the largest CSD-representable
/// value not exceeding `headroom`/MSA (headroom < 1 guards overflow).
double scale_for_msa(double msa, double headroom = 0.98);

}  // namespace dsadc::decim
