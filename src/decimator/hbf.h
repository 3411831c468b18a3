// Bit-true fixed-point Saramaki half-band decimator (Fig. 7 of the paper).
//
// The structure is implemented in its polyphase form, which is what the
// figure actually draws: because the F2 subfilter has taps only at odd
// offsets, F2(z) = G2(z^2) for a length-2*n2 symmetric subfilter G2, so
// after the decimate-by-2 split every G2 block - the box with 11 unit
// delays and taps f2(1..6) in the figure - runs at the *output* rate on
// the even-phase stream, and the 0.5 path is a plain delay on the
// odd-phase stream (the z^-11, z^-11, z^-6 chain: 28 output samples).
// Outer taps f1 apply to the odd cascade outputs in the power basis
// (branch i carries (2 F2hat)^(2i-1)).
//
// Every G2 output is requantized to an internal guard format, exactly as
// the synthesized datapath rounds between adder stages. A direct-form
// polyphase implementation of the *composite* 111 taps is available in
// fir.h for cross-checking and ablation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/decimator/fir.h"
#include "src/decimator/soa.h"
#include "src/filterdesign/saramaki.h"
#include "src/fixedpoint/fixed.h"

namespace dsadc::decim {

namespace hbf_detail {

/// Everything derived from (design, formats, coeff/guard precision) that
/// the push() reference and the bank share; the only way either is built.
/// Throws std::invalid_argument for designs or formats the stage cannot
/// run -- n1/n2 disagreeing with the CSD coefficient counts, empty
/// subfilters, widths or shifts out of range -- so both forms refuse the
/// same configs at construction.
struct HbfParams {
  std::vector<std::int64_t> f2_coeffs;  ///< integer subfilter taps
  std::vector<std::int64_t> f1_coeffs;  ///< integer outer taps (power basis)
  std::int64_t half_coeff = 0;          ///< 0.5 in coefficient scale
  int coeff_frac = 24;
  std::size_t n1 = 0, n2 = 0, d2 = 0, big_d = 0;
  fx::Format in_fmt, out_fmt, internal_fmt;
  fx::Format prod_fmt;  ///< post-multiplier format (narrow adder tree)
  /// Bank requantizers for the four sites: input promotion (hbf_in),
  /// post-multiplier truncation (hbf_product), G2 output (hbf_internal)
  /// and the final output (hbf_out).
  soa::Requant rq_in, rq_prod, rq_int, rq_out;
};

HbfParams make_hbf_params(const design::SaramakiHbf& design, fx::Format in_fmt,
                          fx::Format out_fmt, int coeff_frac_bits,
                          int guard_frac_bits);

}  // namespace hbf_detail

class SaramakiHbfDecimator {
 public:
  /// `design` supplies f1/f2 (the CSD-quantized values are used),
  /// `coeff_frac_bits` the coefficient scale (the paper's 24 bits),
  /// `guard_frac_bits` the extra fractional bits carried between blocks.
  SaramakiHbfDecimator(const design::SaramakiHbf& design, fx::Format in_fmt,
                       fx::Format out_fmt, int coeff_frac_bits = 24,
                       int guard_frac_bits = 6);

  /// Push one sample at the input rate; true on every second sample with
  /// the decimated output.
  bool push(std::int64_t in, std::int64_t& out);

  /// push() over a block, returning the decimated samples.
  std::vector<std::int64_t> process(std::span<const std::int64_t> in);

  void reset();

  const fx::Format& input_format() const { return p_.in_fmt; }
  const fx::Format& output_format() const { return p_.out_fmt; }
  const fx::Format& internal_format() const { return p_.internal_fmt; }
  /// Composite group delay D in input samples.
  std::size_t group_delay() const { return p_.big_d; }
  /// Multiplications (CSD networks) evaluated per output sample.
  std::size_t macs_per_output() const;

 private:
  /// One G2 subfilter instance (even-phase, length 2*n2, symmetric).
  struct G2Block {
    std::vector<std::int64_t> hist;  // circular delay line, size 2*n2
    std::size_t pos = 0;

    /// Push an even-phase sample, return the product-format accumulator.
    /// `coeffs[j]` weights offsets with |2k - (2*n2 - 1)| = 2j - 1; each
    /// product is requantized to the owner's product format before the sum
    /// (narrow adder tree, as in the power-optimized datapath).
    std::int64_t step(std::int64_t in, const std::vector<std::int64_t>& coeffs,
                      const SaramakiHbfDecimator& owner);
  };

  std::int64_t requantize_product(std::int64_t prod) const;
  std::int64_t requantize_internal(std::int64_t acc) const;

  hbf_detail::HbfParams p_;

  std::vector<G2Block> blocks_;              ///< 2 n1 - 1 cascade stages
  std::vector<std::int64_t> odd_delay_;      ///< 0.5 path, (D+1)/2 samples
  std::size_t opos_ = 0;
  /// Branch delay lines for odd cascade outputs w1, w3, ... (all but the
  /// last): (D - (2i-1) d2)/2 output samples each.
  std::vector<std::vector<std::int64_t>> branch_delay_;
  std::vector<std::size_t> bpos_;
  int phase_ = 0;
};

/// N-channel lockstep Saramaki HBF bank over channel-interleaved frames
/// (element index = frame * channels + channel); the block form of the
/// stage at every width, 1 included. Every channel undergoes the exact
/// per-sample operation sequence of SaramakiHbfDecimator::push --
/// promote, per-product requantize, G2 cascade, branch alignment, f1
/// combination -- so each lane is bit-identical to it, outputs and fx
/// event-counter totals alike.
class SaramakiHbfBank {
 public:
  SaramakiHbfBank(const design::SaramakiHbf& design, std::size_t channels,
                  fx::Format in_fmt, fx::Format out_fmt,
                  int coeff_frac_bits = 24, int guard_frac_bits = 6);

  /// `data.size()` must be a multiple of `channels`; input-rate frames on
  /// entry, decimated output frames on return.
  void process_inplace(std::vector<std::int64_t>& data);

  void reset();

  std::size_t channels() const { return channels_; }
  std::size_t group_delay() const { return p_.big_d; }

 private:
  void g2_bank_pass(std::size_t block, std::vector<std::int64_t>& stream,
                    soa::RequantTally& t_prod, soa::RequantTally& t_int);

  hbf_detail::HbfParams p_;
  std::size_t channels_;

  // Delay lines, rows of C channels, oldest row first: a block reads one
  // as the contiguous prefix of an extended buffer and writes the newest
  // rows back in one copy, so no cursor is kept.
  std::vector<std::vector<std::int64_t>> block_hist_;  ///< 2*n2 rows each
  std::vector<std::int64_t> odd_delay_;                ///< (D+1)/2 rows
  std::vector<std::vector<std::int64_t>> branch_delay_;
  int phase_ = 0;

  // Scratch rows (reused across blocks).
  std::vector<std::int64_t> even_scratch_;
  std::vector<std::int64_t> odd_ext_;  ///< 0.5-path history + odd rows
  std::vector<std::int64_t> g2_ext_;
  /// Per f1 branch: its delay line's history, then the branch's G2 rows.
  std::vector<std::vector<std::int64_t>> branch_ext_;
  std::vector<const std::int64_t*> branch_rows_;  ///< hbf_out kernel arg
};

}  // namespace dsadc::decim
