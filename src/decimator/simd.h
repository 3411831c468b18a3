// Runtime-dispatched SIMD tiers for the SoA bank kernels.
//
// The bank stages' hot loops (cic/fir/hbf/scaler channel rows, the
// runtime's renorm pass) are plain int64 lane loops that auto-vectorize
// well -- but only as wide as the translation unit's target allows.
// Instead of the old compile-time DSADC_ENABLE_AVX2 opt-in, the loop
// bodies live once in bank_kernels_impl.h and are compiled three times
// with different target flags (scalar baseline, -mavx2, -mavx512*); this
// header's dispatcher picks the widest tier the running CPU supports via
// CPUID, once, at first use.
//
// Bit-exactness across tiers is structural: every kernel is the same
// source and does exact integer arithmetic with one independent
// accumulator chain per output (taps iterate in the outer loop, so
// vectorizing the channel loop -- or, at one lane, the frame loop --
// never reorders a chain), and the tally reductions are plain integer
// sums. tests/test_simd_dispatch.cpp pins
// each supported tier and asserts identical outputs and counter totals.
//
// Environment:
//   DSADC_SIMD   scalar | avx2 | avx512 -- cap the selected tier (the
//                escape hatch replacing DSADC_ENABLE_AVX2=OFF). Unknown
//                values and tiers the CPU lacks fall back to the widest
//                supported tier at or below the request.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/decimator/soa.h"
#include "src/fixedpoint/csd.h"

namespace dsadc::decim::simd {

enum class Tier : int {
  kScalar = 0,  ///< baseline target flags (always available)
  kAvx2 = 1,    ///< -mavx2 (256-bit lanes; 64-bit mul emulated)
  kAvx512 = 2,  ///< -mavx512f/dq/vl (512-bit lanes, native vpmullq/vpsraq)
};

/// One table of bank-kernel entry points per tier. All kernels operate on
/// channel-interleaved frames (element index = frame * C + channel) and
/// are bit-identical across tiers by construction.
struct BankKernels {
  /// One fused CIC stage: the full integrator cascade at the input rate,
  /// decimation, and the comb cascade at the output rate in a single pass
  /// over `data` (one read of every input row, one write per kept row,
  /// instead of 2*order full-buffer passes). `integ`/`comb` hold order*C
  /// state rows; `skip` is the first kept frame index. Per frame the
  /// sections run in cascade order -- exactly the scalar push() sequence,
  /// so the fusion is bit-identical to section-wise passes. At C == 1 it
  /// runs the modular form instead: same outputs, state kept unwrapped
  /// (congruent mod 2^w). Returns the output frame count.
  std::size_t (*cic_stage)(std::int64_t* data, std::size_t frames,
                           std::size_t C, std::int64_t* integ,
                           std::int64_t* comb, std::size_t order,
                           std::size_t skip, std::size_t decim,
                           soa::Wrap wrap);
  /// FIR emit loop over the extended window buffer; writes requantized
  /// output rows to the front of `data` and returns the row count. `acc`
  /// is a caller-owned C-wide scratch row (unused at C == 1).
  std::size_t (*fir_emit)(std::int64_t* data, const std::int64_t* ext,
                          std::size_t frames, std::size_t C,
                          const std::int64_t* taps, std::size_t tap_count,
                          std::size_t first, std::size_t decim,
                          std::int64_t* acc, const soa::Requant& rq,
                          soa::RequantTally& tally);
  /// Saramaki G2 block pass over `frames` rows of the extended buffer
  /// (`ext` holds 2*n2 history rows then the stream rows); writes the
  /// internal-format result rows into `stream`.
  void (*hbf_g2)(std::int64_t* stream, const std::int64_t* ext,
                 std::size_t frames, std::size_t C, const std::int64_t* f2,
                 std::size_t n2, const soa::Requant& rq_prod,
                 const soa::Requant& rq_int, soa::RequantTally& t_prod,
                 soa::RequantTally& t_int);
  /// Halfband output combination: 0.5-path product + n1 branch products,
  /// each product requantized, then the output requantize per row.
  void (*hbf_out)(std::int64_t* data, const std::int64_t* half_path,
                  const std::int64_t* const* branches, std::size_t n1,
                  std::int64_t half_coeff, const std::int64_t* f1,
                  std::size_t out_frames, std::size_t C,
                  const soa::Requant& rq_prod, const soa::Requant& rq_out,
                  soa::RequantTally& t_prod, soa::RequantTally& t_out);
  /// CSD Horner scaling over `count` independent samples.
  void (*scaler_map)(std::int64_t* data, std::size_t count,
                     const fx::CsdDigit* digits, std::size_t n_digits,
                     int frac_bits, const soa::Requant& rq,
                     soa::RequantTally& tally);
  /// Element-wise requantize (the runtime renorm / hbf input promote).
  void (*requant_rows)(std::int64_t* data, std::size_t count,
                       const soa::Requant& rq, soa::RequantTally& tally);
};

/// The active tier's kernel table (detects on first use; lock-free after).
const BankKernels& kernels();

/// Tier currently in effect.
Tier active_tier();
/// Widest tier this binary + CPU can run.
Tier best_tier();
/// Compiled in AND supported by the running CPU.
bool tier_supported(Tier tier);
/// Force a tier (tests/benches); returns false and leaves the active tier
/// unchanged if the tier is unsupported.
bool set_active_tier(Tier tier);
/// "scalar" / "avx2" / "avx512".
const char* tier_name(Tier tier);

}  // namespace dsadc::decim::simd
