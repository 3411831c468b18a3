// Sharded session runtime: the per-channel lifecycle layer under the
// decimation service (src/service).
//
// The SoA MultiChannelRuntime runs a fixed set of lockstep channels; a
// service instead sees thousands of independent sessions that open,
// stream DATA blocks of arbitrary length, reconfigure, drain and close
// at their own pace. SessionRuntime provides that lifecycle: sessions
// are keyed by an opaque 64-bit id, each owns a streaming
// decim::DecimationChain (state carries across DATA jobs exactly like
// consecutive process() calls on a scalar chain, so served output is
// bit-identical to one-shot processing of the concatenated stream), and
// sessions are sharded by `id % shards` into admission queues.
//
// Each shard is a bounded MpmcRing of jobs (spsc.h) plus an atomic
// `busy` claim flag. Any number of submitters push; a small worker pool
// (DSADC_RUNTIME_THREADS / Options::workers) scans the shards, claims a
// non-empty one with an atomic exchange, drains it in FIFO order, and
// releases the claim. Exactly one worker executes a shard at a time, so
// per-session job order -- and therefore every output sample -- is
// independent of the worker count; only scheduling varies.
//
// Overload policy (Options::policy):
//  * kBlock: submit() blocks until the shard queue has room -- the
//    backpressure propagates to the connection reader and from there to
//    the client socket;
//  * kShed: a kData job whose shard queue is full is refused (submit()
//    returns false) and the caller accounts the shed. Lifecycle jobs
//    (open/reconfigure/drain/close) always block: losing them would
//    corrupt the session state machine.
//
// Batch serving (the service fast path): sessions that OPEN with
// SessionJob::lockstep and share a config object form per-shard
// BatchGroups. Once a group seals (first DATA frame), equal-length DATA
// blocks present at every lane run as one ChainBank::process_rows round
// -- the same chunked interleave -> bank kernels (scalar/AVX2/AVX-512
// dispatched) -> deinterleave loop MultiChannelRuntime uses -- back to
// per-session results. A session's own DecimationChain is the same
// ChainBank at width 1, so lane arithmetic is bit-identical to it,
// including fx saturate/round counter totals, and the fast path is
// invisible except in throughput. Stragglers (deep uneven backlogs),
// unequal block lengths, the linger timer, or any lifecycle op dissolve
// the group: ChainBank::copy_lane copies each lane of the group's bank
// into its session chain's 1-lane bank, and queued blocks replay on the
// sessions' own chains, preserving per-session FIFO order.
//
// While observability is enabled the runtime publishes the
// `service.inflight` gauge (admitted jobs not yet completed).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <semaphore>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/decimator/chain.h"
#include "src/runtime/spsc.h"

namespace dsadc::runtime {

enum class SessionOp : std::uint8_t {
  kOpen,
  kReconfigure,
  kData,
  kDrain,
  kClose,
};

enum class SessionStatus : std::uint8_t {
  kOk,
  kNotOpen,      ///< data/drain/close/reconfigure on an unknown session
  kAlreadyOpen,  ///< open on an existing session
  kError,        ///< job execution threw (bad config, ...)
};

struct SessionResult {
  std::uint64_t session = 0;
  SessionOp op = SessionOp::kData;
  SessionStatus status = SessionStatus::kOk;
  /// Decimated output samples (kData; kDrain returns the flush tail).
  std::vector<std::int64_t> samples;
};

/// One unit of admitted work. `done` (optional) runs on the worker thread
/// that executed the job, after the chain work completed.
struct SessionJob {
  std::uint64_t session = 0;
  SessionOp op = SessionOp::kData;
  /// Chain configuration for kOpen/kReconfigure (shared so presets are
  /// designed once, not per session). Batch grouping keys on the POINTER:
  /// sessions batch together only when they share one config object.
  std::shared_ptr<const decim::ChainConfig> config;
  std::vector<std::int32_t> codes;  ///< kData payload
  /// kOpen only: volunteer this session for lockstep batch serving. Its
  /// DATA blocks may then be coalesced with co-sharded lockstep sessions
  /// of the same config into one SoA ChainBank round (bit-exact either
  /// way, including fx counter totals; purely a throughput hint).
  bool lockstep = false;
  std::function<void(SessionResult)> done;
};

class SessionRuntime {
 public:
  enum class Overload : std::uint8_t { kBlock, kShed };

  struct Options {
    std::size_t shards = 16;
    std::size_t workers = 0;  ///< 0 -> configured_threads()
    std::size_t queue_capacity = 64;  ///< jobs per shard ring
    Overload policy = Overload::kBlock;
    /// Batch serving: a lockstep group whose backlog has been blocked on a
    /// starved lane for this long is dissolved back to scalar chains (the
    /// cohort is evidently not lockstep in practice). 0 disables the
    /// timer-based dissolve (lifecycle/straggler dissolves still apply).
    std::int64_t batch_linger_us = 20000;
    /// Straggler bound: when the deepest lane backlog of a non-runnable
    /// group reaches this many blocks, the group dissolves immediately
    /// instead of waiting out the linger timer.
    std::size_t batch_max_lane_backlog = 8;
  };

  explicit SessionRuntime(Options opts);
  ~SessionRuntime();

  SessionRuntime(const SessionRuntime&) = delete;
  SessionRuntime& operator=(const SessionRuntime&) = delete;

  /// Admit a job. Returns false only when the job was NOT admitted: a
  /// kData job refused under the kShed policy, or any job after stop().
  /// Under kBlock the call blocks until the shard queue has room.
  bool submit(SessionJob job);

  /// Finish every admitted job, then join the workers. Idempotent; the
  /// destructor calls it. Submitters must be quiesced first (the service
  /// joins its connection readers before stopping the runtime): a
  /// submit() that races stop() may be refused or left unexecuted.
  void stop();

  /// Shard index a session id maps to (stable for the runtime lifetime).
  std::size_t shard_of(std::uint64_t session) const {
    return static_cast<std::size_t>(session % shards_.size());
  }

  /// Jobs admitted but not yet completed.
  std::size_t inflight() const {
    return pending_.load(std::memory_order_relaxed);
  }

  std::size_t shards() const { return shards_.size(); }
  std::size_t workers() const { return threads_.size(); }
  Overload policy() const { return opts_.policy; }

  /// Number of zero samples a drain feeds through a chain: the chain's
  /// group delay rounded up to a whole number of output samples.
  static std::size_t drain_pad_frames(const decim::DecimationChain& chain);

 private:
  struct BatchGroup;

  struct Session {
    std::unique_ptr<decim::DecimationChain> chain;
    /// Trace-store transaction id of the kOpen that created the session;
    /// later jobs link their transactions to it as parent, so a whole
    /// session reads as one tree in the store.
    std::uint64_t open_txn = 0;
    /// Lockstep batch membership. While grouped, the session's streaming
    /// state lives in lane `lane` of the group's ChainBank; `chain` stays
    /// parked and dissolve copies the lane into it.
    BatchGroup* group = nullptr;
    std::size_t lane = 0;
    /// The config this session was opened/reconfigured with (the grouping
    /// key).
    std::shared_ptr<const decim::ChainConfig> config;
  };

  /// A lockstep cohort on one shard: sessions that opened with the
  /// lockstep flag and one shared config object. Joins happen between the
  /// cohort's OPENs and its first DATA frame (the group then "seals" at
  /// its current width); after that, equal-length DATA blocks present at
  /// every lane are interleaved and run as one ChainBank round. Any
  /// lifecycle event, unequal block lengths, a deep straggler backlog, or
  /// the linger timer dissolves the group: every lane of the bank is
  /// copied into its session's chain and queued jobs replay there --
  /// bit-exactly, since a chain is a 1-lane bank of the same class.
  struct BatchGroup {

    std::shared_ptr<const decim::ChainConfig> config;
    std::vector<std::uint64_t> members;  ///< session id per lane
    /// Per-lane FIFO of admitted-but-unprocessed kData jobs.
    std::vector<std::deque<SessionJob>> backlog;
    std::unique_ptr<decim::ChainBank> bank;  ///< created when the group seals
    bool sealed = false;
    std::size_t queued = 0;  ///< total backlog entries across lanes
    /// steady_clock us when the backlog last became blocked (some lane
    /// waiting on a starved peer); 0 while empty or runnable.
    std::int64_t blocked_since_us = 0;
  };

  struct Shard {
    explicit Shard(std::size_t cap) : ring(cap) {}
    MpmcRing<SessionJob> ring;
    /// Claim flag: exactly one worker drains a shard at a time, which is
    /// what serializes session state access without a per-session lock.
    alignas(64) std::atomic<bool> busy{false};
    /// Session table; touched only by the worker holding `busy`.
    std::unordered_map<std::uint64_t, Session> sessions;
    /// Lockstep groups; touched only by the worker holding `busy`.
    std::vector<std::unique_ptr<BatchGroup>> groups;
    /// Earliest BatchGroup::blocked_since_us across `groups` (0: none).
    /// Written under the claim, read by idle workers deciding whether a
    /// quiet shard needs a linger-timer visit.
    std::atomic<std::int64_t> batch_blocked_us{0};
  };

  void worker_loop();
  /// Runs one job against its shard's session table and invokes `done`.
  void run_job(Shard& shard, SessionJob& job);
  void publish_inflight() const;

  // --- batch serving (all run under the shard claim) ---
  /// Joins a freshly opened lockstep session to a compatible unsealed
  /// group (same config object, width < kGroupWidth), creating one if
  /// needed.
  void join_group(Shard& shard, Session& s, std::uint64_t session_id);
  /// Runs every currently runnable round (all lanes holding equal-length
  /// front blocks), then applies the straggler bound. May dissolve `g`.
  void pump_group(Shard& shard, BatchGroup& g);
  void run_batch_round(Shard& shard, BatchGroup& g, std::size_t frames);
  /// Copies every lane of the bank into its session's chain, replays the
  /// backlog through run_job (the sessions' own chains), and deletes the
  /// group.
  void dissolve_group(Shard& shard, BatchGroup& g);
  /// Dissolves groups whose blocked backlog outlived batch_linger_us.
  void flush_stale_groups(Shard& shard, std::int64_t now_us);
  void refresh_batch_blocked(Shard& shard);

  Options opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  std::counting_semaphore<> sem_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace dsadc::runtime
