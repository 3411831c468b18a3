// Multi-channel lockstep streaming runtime (SoA batch execution).
//
// Runs N independent copies of the paper's decimation chain over a
// channel-interleaved structure-of-arrays layout: channels are packed
// into fixed-width groups (kGroupWidth lanes), each group is carried as
// frames of `width` int64 lanes (element index = frame * width + lane),
// and every chain stage runs its bank kernel (CicDecimatorBank,
// SaramakiHbfBank, FirDecimatorBank, ...) over the whole group. The
// per-lane arithmetic sequence is exactly DecimationChain::process, so
// each channel's output stream -- and the fx.<event>.<site> saturation /
// round counter totals -- are bit-identical to running N scalar chains.
//
// ChainBank::process_rows is the one interleave -> bank -> deinterleave
// loop: MultiChannelRuntime here and the session runtime's lockstep
// batch rounds (session.h) both call it, in kTransposeChunkFrames chunks.
//
// Groups are independent, so they can be claimed by a small worker pool
// (DSADC_RUNTIME_THREADS); the group width is a compile-time constant and
// results are deposited per-channel, so the output is deterministic and
// identical for every worker count. See docs/PERF.md ("Multi-channel
// runtime") for the layout and the determinism argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/decimator/chain.h"
#include "src/decimator/soa.h"

namespace dsadc::obs {
class Counter;
class Gauge;
}  // namespace dsadc::obs

namespace dsadc::runtime {

/// Fixed SoA group width. Independent of thread count (so results never
/// depend on DSADC_RUNTIME_THREADS; per-lane results are independent of
/// the grouping itself, the width only moves performance). 32 int64
/// lanes fill AVX-512 vectors four times over, amortize the per-frame
/// scalar bookkeeping of the HBF/CIC kernels, and still leave multiple
/// groups for the worker pool at 64+ channels.
inline constexpr std::size_t kGroupWidth = 32;

/// Frames per ChainBank::process_rows chunk: the interleaved buffer of a
/// full-width group (1024 x 32 int64) stays cache-resident across the
/// bank's stages.
inline constexpr std::size_t kTransposeChunkFrames = 1024;

/// Worker count for the runtime: DSADC_RUNTIME_THREADS when set (clamped
/// to >= 1), else the hardware concurrency.
std::size_t configured_threads();

/// An N-lane lockstep DecimationChain over channel-interleaved frames:
/// the bank form of every chain stage plus the CIC-gain renormalization
/// between the Sinc cascade and the halfband. Lane c is bit-identical to
/// a dedicated DecimationChain fed the same codes.
class ChainBank {
 public:
  ChainBank(const decim::ChainConfig& config, std::size_t lanes);

  /// `data` holds modulator codes as channel-interleaved frames on entry
  /// (size a multiple of `lanes`) and output-format samples on return.
  void process_inplace(std::vector<std::int64_t>& data);

  /// Lockstep transpose around process_inplace: `rows[lane]` points at
  /// `frames` modulator codes for each of the `lanes()` lanes; each
  /// lane's output samples are appended to `outs[lane]`. Runs in
  /// kTransposeChunkFrames chunks through an owned interleave buffer
  /// (the bank carries state across calls, so any chunking of the same
  /// stream is bit-exact).
  void process_rows(std::span<const std::int32_t* const> rows,
                    std::size_t frames,
                    std::span<std::vector<std::int64_t>> outs);

  void reset();

  /// Copy lane `lane`'s streaming state into a scalar chain constructed
  /// from the same config, so `dst` continues that lane's sample stream --
  /// and its fx event attribution -- bit-exactly from the next block on.
  /// The batch serving mode uses this to dissolve a lockstep group back to
  /// per-session scalar chains (stragglers, reconfigure, drain, close).
  void export_lane(std::size_t lane, decim::DecimationChain& dst) const;

  std::size_t lanes() const { return lanes_; }

 private:
  std::size_t lanes_;
  std::vector<decim::CicDecimatorBank> cic_;
  decim::soa::Requant renorm_;  ///< CIC gain shift into the HBF format
  decim::SaramakiHbfBank hbf_;
  decim::ScalingStage scaler_;
  decim::FirDecimatorBank equalizer_;
  std::vector<std::int64_t> buf_;      ///< process_rows interleave scratch
  std::vector<std::int64_t*> dst_;     ///< process_rows per-lane write heads
};

/// The streaming runtime: N channels, grouped into SoA banks, executed
/// by an optional worker pool. Also publishes per-channel throughput
/// gauges (`runtime.throughput_sps.ch<i>`) and sample counters
/// (`runtime.samples.ch<i>`) while observability is enabled.
class MultiChannelRuntime {
 public:
  MultiChannelRuntime(const decim::ChainConfig& config, std::size_t channels);

  /// `codes[c]` is channel c's modulator-code block; all blocks must have
  /// equal length (a streaming tick). Returns per-channel output samples.
  /// Deterministic: the result is independent of the worker count.
  std::vector<std::vector<std::int64_t>> process(
      const std::vector<std::vector<std::int32_t>>& codes);

  /// Same, writing into caller-owned vectors (resized to `channels()`).
  /// Reusing `out` across streaming ticks makes the steady state
  /// allocation-free once capacities have grown to the block size.
  void process_into(const std::vector<std::vector<std::int32_t>>& codes,
                    std::vector<std::vector<std::int64_t>>& out);

  void reset();

  std::size_t channels() const { return channels_; }
  std::size_t groups() const { return groups_.size(); }

 private:
  struct Group {
    std::size_t first = 0;  ///< first channel index
    std::size_t width = 0;  ///< lanes in this group (<= kGroupWidth)
    ChainBank bank;
    /// Per-lane instrument handles, resolved once on first publish so the
    /// steady state never rebuilds metric-name strings (Registry handles
    /// are process-lifetime stable).
    std::vector<obs::Counter*> sample_counters;
    std::vector<obs::Gauge*> throughput_gauges;

    Group(const decim::ChainConfig& config, std::size_t first_,
          std::size_t width_)
        : first(first_), width(width_), bank(config, width_) {}
  };

  std::size_t channels_;
  std::vector<Group> groups_;
};

}  // namespace dsadc::runtime
