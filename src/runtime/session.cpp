#include "src/runtime/session.h"

#include <chrono>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/store/tracker.h"
#include "src/runtime/multichannel.h"

namespace dsadc::runtime {
namespace {

/// The config of a job submitted without one: the paper chain, designed
/// on first use.
const decim::ChainConfig& config_of(const SessionJob& job) {
  if (job.config) return *job.config;
  static const decim::ChainConfig paper = decim::paper_chain_config();
  return paper;
}

/// Interned trace-store transaction name per SessionOp (indexed by the
/// enum's underlying value).
std::uint32_t op_name_id(SessionOp op) {
  static const std::uint32_t ids[] = {
      obs::store::intern("session.open"),
      obs::store::intern("session.reconfigure"),
      obs::store::intern("session.data"),
      obs::store::intern("session.drain"),
      obs::store::intern("session.close"),
  };
  return ids[static_cast<std::size_t>(op)];
}

/// The service packs (conn_id << 32) | channel into the session id; the
/// low word is what reads as "channel" in the store.
std::uint32_t session_channel(std::uint64_t session) {
  return static_cast<std::uint32_t>(session & 0xffffffffu);
}

}  // namespace

SessionRuntime::SessionRuntime(Options opts) : opts_(opts) {
  if (opts_.shards == 0) {
    throw std::invalid_argument("SessionRuntime: shards >= 1");
  }
  if (opts_.queue_capacity == 0) {
    throw std::invalid_argument("SessionRuntime: queue_capacity >= 1");
  }
  if (opts_.workers == 0) opts_.workers = configured_threads();
  shards_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(opts_.queue_capacity));
  }
  threads_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

SessionRuntime::~SessionRuntime() { stop(); }

void SessionRuntime::publish_inflight() const {
  if (!obs::enabled()) return;
  obs::Registry::instance().gauge("service.inflight").set(
      static_cast<double>(pending_.load(std::memory_order_relaxed)));
}

bool SessionRuntime::submit(SessionJob job) {
  if (stop_.load(std::memory_order_acquire)) return false;
  const std::size_t shard_idx = shard_of(job.session);
  Shard& sh = *shards_[shard_idx];
  const bool store_on = obs::store::enabled();
  const std::uint32_t channel =
      store_on ? session_channel(job.session) : obs::store::kNoChannel;
  const std::uint64_t payload = job.codes.size();
  pending_.fetch_add(1, std::memory_order_relaxed);
  bool admitted = false;
  if (opts_.policy == Overload::kShed && job.op == SessionOp::kData) {
    admitted = sh.ring.try_push(job);
    if (!admitted && store_on) {
      static const std::uint32_t shed_id = obs::store::intern("ring.shed");
      obs::store::Event e;
      e.category = obs::store::Category::kRuntime;
      e.name = shed_id;
      e.channel = channel;
      e.value = static_cast<std::int64_t>(shard_idx);
      e.aux = payload;
      obs::store::emit(e);
    }
  } else if (store_on && !sh.ring.try_push(job)) {
    // Full ring under the blocking policy: record how long backpressure
    // held this submitter.
    const std::int64_t t0 = obs::store::now_us();
    admitted = sh.ring.push(std::move(job));
    static const std::uint32_t stall_id = obs::store::intern("ring.stall");
    obs::store::Event e;
    e.category = obs::store::Category::kRuntime;
    e.name = stall_id;
    e.ts_us = t0;
    e.dur_us = obs::store::now_us() - t0;
    e.channel = channel;
    e.value = static_cast<std::int64_t>(shard_idx);
    e.aux = payload;
    obs::store::emit(e);
  } else if (!store_on) {
    admitted = sh.ring.push(std::move(job));
  } else {
    admitted = true;  // store_on and the try_push above took the job
  }
  if (!admitted) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    publish_inflight();
    return false;
  }
  publish_inflight();
  sem_.release();
  return true;
}

void SessionRuntime::run_job(Shard& shard, SessionJob& job) {
  SessionResult r;
  r.session = job.session;
  r.op = job.op;
  // One store transaction per job: every event the chain emits while the
  // job runs (stage boundaries, fx hits) inherits this id and channel.
  obs::store::TxnScope txn(op_name_id(job.op), session_channel(job.session));
  try {
    auto it = shard.sessions.find(job.session);
    switch (job.op) {
      case SessionOp::kOpen: {
        if (it != shard.sessions.end()) {
          r.status = SessionStatus::kAlreadyOpen;
          break;
        }
        Session s;
        s.chain = std::make_unique<decim::DecimationChain>(config_of(job));
        s.open_txn = txn.id();
        shard.sessions.emplace(job.session, std::move(s));
        break;
      }
      case SessionOp::kReconfigure: {
        if (it == shard.sessions.end()) {
          r.status = SessionStatus::kNotOpen;
          break;
        }
        txn.set_parent(it->second.open_txn);
        // Reconfiguration swaps in a freshly built chain: filter state
        // never carries across a format/coefficient change. The chain is
        // built first, so a config it refuses leaves the session on its
        // old config and chain.
        it->second.chain =
            std::make_unique<decim::DecimationChain>(config_of(job));
        break;
      }
      case SessionOp::kData: {
        if (it == shard.sessions.end()) {
          r.status = SessionStatus::kNotOpen;
          break;
        }
        txn.set_parent(it->second.open_txn);
        r.samples = it->second.chain->process(job.codes);
        txn.set_value(static_cast<std::int64_t>(r.samples.size()));
        break;
      }
      case SessionOp::kDrain: {
        if (it == shard.sessions.end()) {
          r.status = SessionStatus::kNotOpen;
          break;
        }
        txn.set_parent(it->second.open_txn);
        const std::vector<std::int32_t> zeros(
            drain_pad_frames(*it->second.chain), 0);
        r.samples = it->second.chain->process(zeros);
        txn.set_value(static_cast<std::int64_t>(r.samples.size()));
        break;
      }
      case SessionOp::kClose: {
        if (it == shard.sessions.end()) {
          r.status = SessionStatus::kNotOpen;
          break;
        }
        txn.set_parent(it->second.open_txn);
        shard.sessions.erase(job.session);
        break;
      }
    }
  } catch (...) {
    r.status = SessionStatus::kError;
    r.samples.clear();
  }
  if (job.done) job.done(std::move(r));
}

std::size_t SessionRuntime::drain_pad_frames(
    const decim::DecimationChain& chain) {
  const std::size_t gd = chain.group_delay_input_samples();
  const std::size_t m = chain.total_decimation();
  return ((gd + m - 1) / m) * m;
}

void SessionRuntime::worker_loop() {
  using namespace std::chrono_literals;
  for (;;) {
    // The semaphore is a wake hint, not an exact item count: a worker
    // draining a shard may take items whose credits other workers consume
    // as spurious wake-ups. The timed acquire bounds any lost-wakeup
    // window, so no admitted job can be stranded.
    (void)sem_.try_acquire_for(1ms);
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      sem_.release();  // cascade: wake a peer so it can exit too
      return;
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& sh = *shards_[i];
      if (sh.ring.size() == 0) continue;
      if (sh.busy.exchange(true, std::memory_order_acquire)) continue;
      SessionJob job;
      while (sh.ring.try_pop(job)) {
        run_job(sh, job);
        job = SessionJob{};  // release payload before the next pop
        pending_.fetch_sub(1, std::memory_order_release);
        publish_inflight();
      }
      sh.busy.store(false, std::memory_order_release);
      // Stranded-item guard: an item pushed while we were finishing the
      // drain may have had its credit consumed by a worker that found the
      // shard busy; re-arm the semaphore so someone comes back.
      if (sh.ring.size() != 0) sem_.release();
    }
  }
}

void SessionRuntime::stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  stop_.store(true, std::memory_order_release);
  sem_.release(static_cast<std::ptrdiff_t>(threads_.size()) + 1);
  for (auto& t : threads_) t.join();
  for (auto& sh : shards_) sh->ring.close();
}

}  // namespace dsadc::runtime
