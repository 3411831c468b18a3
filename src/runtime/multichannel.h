// Multi-channel streaming runtime: N independent copies of the paper's
// decimation chain, one decim::DecimationChain per channel.
//
// Every channel owns its chain and is fed its own row of codes, so its
// output stream -- and the fx.<event>.<site> saturation / round counter
// totals -- are those of one DecimationChain::process per channel by
// construction. A DecimationChain is a 1-lane ChainBank whose kernels
// vectorize along time, so a channel runs as fast as one lane of a
// multi-lane bank without interleaving the rows.
//
// Channels are independent, so they are claimed by a small worker pool
// (DSADC_RUNTIME_THREADS); results are deposited per channel, so the
// output is deterministic and identical for every worker count. See
// docs/PERF.md ("Multi-channel runtime").
#pragma once

#include <cstdint>
#include <vector>

#include "src/decimator/chain.h"

namespace dsadc::obs {
class Counter;
class Gauge;
}  // namespace dsadc::obs

namespace dsadc::runtime {

/// Lane count of a full multi-lane ChainBank (the bank layer probes): 32
/// int64 lanes fill AVX-512 vectors four times over. The runtime itself
/// runs every channel at one lane.
inline constexpr std::size_t kGroupWidth = 32;

/// The bank form of the chain lives in decimator/chain.h (DecimationChain
/// is a 1-lane ChainBank); the runtime re-exports it.
using decim::ChainBank;

/// Worker count for the runtime: DSADC_RUNTIME_THREADS when set (clamped
/// to >= 1), else the hardware concurrency.
std::size_t configured_threads();

/// The streaming runtime: N channels, one DecimationChain each, executed
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
  void process_into(const std::vector<std::vector<std::int32_t>>& codes,
                    std::vector<std::vector<std::int64_t>>& out);

  void reset();

  std::size_t channels() const { return channels_.size(); }

 private:
  struct Channel {
    decim::DecimationChain chain;
    /// Instrument handles, resolved once on first publish so the steady
    /// state never rebuilds metric-name strings (Registry handles are
    /// process-lifetime stable).
    obs::Counter* samples = nullptr;
    obs::Gauge* throughput = nullptr;

    explicit Channel(const decim::ChainConfig& config) : chain(config) {}
  };

  std::vector<Channel> channels_;
};

}  // namespace dsadc::runtime
