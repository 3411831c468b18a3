// Sharded session runtime: the per-channel lifecycle layer under the
// decimation service (src/service).
//
// The MultiChannelRuntime runs a fixed set of equal-tick channels; a
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
// Every session's DATA runs on its own chain, in job
// order, under the shard claim, so served output is bit-identical to one
// DecimationChain::process per session -- samples and fx saturate/round
// counter totals -- for any worker count. SessionJob::lockstep and
// Options::batch_linger_us are accepted and ignored.
//
// While observability is enabled the runtime publishes the
// `service.inflight` gauge (admitted jobs not yet completed).
#pragma once

#include <atomic>
#include <cstdint>
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
  /// designed once, not per session); null selects the paper chain.
  std::shared_ptr<const decim::ChainConfig> config;
  std::vector<std::int32_t> codes;  ///< kData payload
  /// Accepted and ignored: every session runs on its own chain. Kept so
  /// callers that set it still compile.
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
    /// Accepted and ignored (there are no batch groups to linger); kept
    /// so callers that set it still compile.
    std::int64_t batch_linger_us = 20000;
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
  struct Session {
    std::unique_ptr<decim::DecimationChain> chain;
    /// Trace-store transaction id of the kOpen that created the session;
    /// later jobs link their transactions to it as parent, so a whole
    /// session reads as one tree in the store.
    std::uint64_t open_txn = 0;
  };

  struct Shard {
    explicit Shard(std::size_t cap) : ring(cap) {}
    MpmcRing<SessionJob> ring;
    /// Claim flag: exactly one worker drains a shard at a time, which is
    /// what serializes session state access without a per-session lock.
    alignas(64) std::atomic<bool> busy{false};
    /// Session table; touched only by the worker holding `busy`.
    std::unordered_map<std::uint64_t, Session> sessions;
  };

  void worker_loop();
  /// Runs one job against its shard's session table and invokes `done`.
  void run_job(Shard& shard, SessionJob& job);
  void publish_inflight() const;

  Options opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  std::counting_semaphore<> sem_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace dsadc::runtime
