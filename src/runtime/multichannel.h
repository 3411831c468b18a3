// Multi-channel lockstep streaming runtime (SoA batch execution).
//
// Runs N independent copies of the paper's decimation chain over a
// channel-interleaved structure-of-arrays layout: channels are packed
// into fixed-width groups (kGroupWidth lanes), each group is carried as
// frames of `width` int64 lanes (element index = frame * width + lane),
// and one decim::ChainBank runs every chain stage's bank kernel over the
// whole group. DecimationChain is the same ChainBank at width 1, so each
// channel's output stream -- and the fx.<event>.<site> saturation /
// round counter totals -- are bit-identical to running N chains.
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

/// The lockstep chain and its transpose chunk live in decimator/chain.h
/// (DecimationChain is a 1-lane ChainBank); the runtime re-exports them.
using decim::ChainBank;
using decim::kTransposeChunkFrames;

/// Worker count for the runtime: DSADC_RUNTIME_THREADS when set (clamped
/// to >= 1), else the hardware concurrency.
std::size_t configured_threads();

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
