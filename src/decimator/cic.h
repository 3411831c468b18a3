// Bit-true Hogenauer CIC (Sinc^K) decimator (Fig. 6 of the paper).
//
// K accumulators run at the input rate with *wraparound* two's-complement
// arithmetic in Bmax-bit registers (modular arithmetic makes the structure
// exact despite intermediate overflow), a pipeline register decouples the
// fast accumulator cascade from the slow side, and K differentiators run
// at the decimated rate. Retiming and pipelining flags do not change the
// arithmetic (they cut glitch power); they are carried here so the RTL
// generator and power model can honour them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/filterdesign/cic.h"
#include "src/fixedpoint/fixed.h"

namespace dsadc::decim {

/// Hardware configuration knobs from Section IV.
struct CicHardwareOptions {
  bool retimed = true;     ///< register in accumulator forward path
  bool pipelined = true;   ///< pipeline register before differentiators
};

class CicDecimator {
 public:
  /// `spec.input_bits` sets the input format; all internal registers use
  /// the Hogenauer width from the spec.
  explicit CicDecimator(design::CicSpec spec,
                        CicHardwareOptions options = {});

  /// Push one input sample (raw integer in the stage's input format).
  /// Returns true and fills `out` every `decimation`-th sample.
  bool push(std::int64_t in, std::int64_t& out);

  /// push() over a block, returning the decimated samples.
  std::vector<std::int64_t> process(std::span<const std::int64_t> in);

  void reset();

  const design::CicSpec& spec() const { return spec_; }
  const CicHardwareOptions& options() const { return options_; }
  /// Register format used by every accumulator/differentiator.
  const fx::Format& register_format() const { return fmt_; }
  /// DC gain of the stage (M^K); the output carries this gain.
  std::int64_t dc_gain() const;

 private:
  design::CicSpec spec_;
  CicHardwareOptions options_;
  fx::Format fmt_;
  std::vector<std::int64_t> integ_;  ///< accumulator states
  std::vector<std::int64_t> comb_;   ///< differentiator delay states
  int phase_ = 0;
};

/// N-channel lockstep CIC bank over channel-interleaved frames (element
/// index = frame * channels + channel); the block form of the stage at
/// every width, 1 included. Each channel runs the exact arithmetic of a
/// dedicated CicDecimator -- same wrapped additions in the same order --
/// so per-channel output streams are bit-identical to push(); the
/// channel-minor layout makes every inner loop a set of independent int64
/// lanes the compiler can vectorize. A 1-lane bank instead vectorizes
/// over frames in the modular (Hogenauer) form: uint64_t integrators and
/// combs with no wrap per add, one wrap per stored output -- the same
/// samples, since a Hogenauer output is exact modulo 2^w. Its state is
/// then kept unwrapped, congruent mod 2^w to the wrapped state of a
/// multi-lane bank.
class CicDecimatorBank {
 public:
  CicDecimatorBank(design::CicSpec spec, std::size_t channels,
                   CicHardwareOptions options = {});

  /// `data.size()` must be a multiple of `channels`; holds frames of
  /// channel-interleaved input on entry, decimated frames on return.
  void process_inplace(std::vector<std::int64_t>& data);

  void reset();

  const design::CicSpec& spec() const { return spec_; }
  const fx::Format& register_format() const { return fmt_; }
  std::size_t channels() const { return channels_; }

 private:
  design::CicSpec spec_;
  CicHardwareOptions options_;
  fx::Format fmt_;
  std::size_t channels_;
  std::vector<std::int64_t> integ_;  ///< order x channels accumulator rows
  std::vector<std::int64_t> comb_;   ///< order x channels delay rows
  int phase_ = 0;
};

/// A cascade of CIC stages (the paper's Sinc4 -> Sinc4 -> Sinc6 chain).
class CicCascade {
 public:
  explicit CicCascade(std::vector<design::CicSpec> specs,
                      CicHardwareOptions options = {});

  /// Process a block at the cascade input rate; returns samples at the
  /// final decimated rate (overall gain = prod M_i^K_i).
  std::vector<std::int64_t> process(std::span<const std::int64_t> in);

  void reset();

  std::size_t total_decimation() const;
  std::int64_t total_dc_gain() const;
  const std::vector<CicDecimator>& stages() const { return stages_; }
  std::vector<CicDecimator>& stages() { return stages_; }

 private:
  std::vector<CicDecimator> stages_;
};

}  // namespace dsadc::decim
