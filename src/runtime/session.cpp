#include "src/runtime/session.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "src/obs/metrics.h"
#include "src/obs/store/tracker.h"
#include "src/runtime/multichannel.h"

namespace dsadc::runtime {
namespace {

std::int64_t steady_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shared fallback config for jobs submitted without one, so null-config
/// lockstep sessions still share a grouping key.
const std::shared_ptr<const decim::ChainConfig>& default_config() {
  static const auto cfg = std::make_shared<const decim::ChainConfig>(
      decim::paper_chain_config());
  return cfg;
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
        s.config = job.config ? job.config : default_config();
        // The chain is built even for lockstep sessions: it validates the
        // config up front and becomes the dissolve target (copy_lane
        // overwrites every piece of its 1-lane bank's streaming state, so
        // the zero-state chain parked here is always a correct landing
        // pad).
        s.chain = std::make_unique<decim::DecimationChain>(*s.config);
        s.open_txn = txn.id();
        auto [sit, inserted] =
            shard.sessions.emplace(job.session, std::move(s));
        if (job.lockstep) join_group(shard, sit->second, job.session);
        break;
      }
      case SessionOp::kReconfigure: {
        if (it == shard.sessions.end()) {
          r.status = SessionStatus::kNotOpen;
          break;
        }
        txn.set_parent(it->second.open_txn);
        // A grouped session leaving the lockstep cohort dissolves the
        // whole group (the bank has no per-lane removal); its queued
        // blocks replay scalar BEFORE the reconfigure, preserving FIFO
        // order per session.
        if (it->second.group) dissolve_group(shard, *it->second.group);
        // Reconfiguration swaps in a freshly built chain: filter state
        // never carries across a format/coefficient change. The chain is
        // built first, so a config it refuses leaves the session on its
        // old config and chain.
        auto config = job.config ? job.config : default_config();
        auto chain = std::make_unique<decim::DecimationChain>(*config);
        it->second.config = std::move(config);
        it->second.chain = std::move(chain);
        break;
      }
      case SessionOp::kData: {
        if (it == shard.sessions.end()) {
          r.status = SessionStatus::kNotOpen;
          break;
        }
        txn.set_parent(it->second.open_txn);
        if (it->second.group) {
          // Batch fast path: the block queues on the session's lane and
          // `done` fires when a full-width round (or a dissolve replay)
          // produces its samples.
          BatchGroup& g = *it->second.group;
          if (!g.sealed) {
            g.bank = std::make_unique<ChainBank>(*g.config,
                                                 g.members.size());
            g.sealed = true;
          }
          txn.set_value(static_cast<std::int64_t>(job.codes.size()));
          g.backlog[it->second.lane].push_back(std::move(job));
          ++g.queued;
          pump_group(shard, g);
          return;  // deferred: done ran (or will run) via round/replay
        }
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
        if (it->second.group) dissolve_group(shard, *it->second.group);
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
        if (it->second.group) dissolve_group(shard, *it->second.group);
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

void SessionRuntime::join_group(Shard& shard, Session& s,
                                std::uint64_t session_id) {
  BatchGroup* g = nullptr;
  for (auto& up : shard.groups) {
    if (!up->sealed && up->config == s.config &&
        up->members.size() < kGroupWidth) {
      g = up.get();
      break;
    }
  }
  if (!g) {
    shard.groups.push_back(std::make_unique<BatchGroup>());
    g = shard.groups.back().get();
    g->config = s.config;
  }
  s.group = g;
  s.lane = g->members.size();
  g->members.push_back(session_id);
  g->backlog.emplace_back();
}

void SessionRuntime::pump_group(Shard& shard, BatchGroup& g) {
  while (g.sealed && g.queued > 0) {
    std::size_t frames = std::numeric_limits<std::size_t>::max();
    std::size_t deepest = 0;
    bool starved = false;   // some lane has no queued block
    bool mismatch = false;  // front blocks disagree on length
    for (const auto& lane : g.backlog) {
      deepest = std::max(deepest, lane.size());
      if (lane.empty()) {
        starved = true;
        continue;
      }
      const std::size_t len = lane.front().codes.size();
      if (frames == std::numeric_limits<std::size_t>::max()) {
        frames = len;
      } else if (len != frames) {
        mismatch = true;
      }
    }
    if (!starved && !mismatch) {
      run_batch_round(shard, g, frames);
      continue;
    }
    // Unequal lengths can never become runnable by waiting; a starved
    // lane might, unless a peer's backlog already shows the cohort has
    // lost lockstep.
    if (mismatch || (opts_.batch_max_lane_backlog != 0 &&
                     deepest >= opts_.batch_max_lane_backlog)) {
      dissolve_group(shard, g);
      return;
    }
    break;
  }
  if (g.queued == 0) {
    g.blocked_since_us = 0;
  } else if (g.blocked_since_us == 0) {
    g.blocked_since_us = steady_us();
  }
  refresh_batch_blocked(shard);
}

void SessionRuntime::run_batch_round(Shard& shard, BatchGroup& g,
                                     std::size_t frames) {
  static const std::uint32_t round_name = obs::store::intern("session.batch");
  obs::store::TxnScope round_txn(round_name);
  const std::size_t width = g.members.size();
  round_txn.set_value(static_cast<std::int64_t>(frames * width));

  std::array<const std::int32_t*, kGroupWidth> codes{};
  for (std::size_t lane = 0; lane < width; ++lane) {
    codes[lane] = g.backlog[lane].front().codes.data();
  }
  std::vector<std::vector<std::int64_t>> outs(width);
  g.bank->process_rows({codes.data(), width}, frames, outs);
  const std::size_t out_frames = outs.empty() ? 0 : outs[0].size();

  // Deliver per lane, in lane order (deterministic for any worker count:
  // the round itself runs under the shard claim).
  for (std::size_t lane = 0; lane < width; ++lane) {
    SessionJob job = std::move(g.backlog[lane].front());
    g.backlog[lane].pop_front();
    --g.queued;
    SessionResult r;
    r.session = job.session;
    r.op = SessionOp::kData;
    obs::store::TxnScope txn(op_name_id(SessionOp::kData),
                             session_channel(job.session));
    // Keep the session tree intact: per-lane delivery parents to the
    // session's open txn (the round txn records the batch itself).
    auto sit = shard.sessions.find(job.session);
    if (sit != shard.sessions.end()) txn.set_parent(sit->second.open_txn);
    r.samples = std::move(outs[lane]);
    txn.set_value(static_cast<std::int64_t>(out_frames));
    if (job.done) job.done(std::move(r));
  }
  g.blocked_since_us = 0;  // the round is progress; re-arm the timer fresh
}

void SessionRuntime::dissolve_group(Shard& shard, BatchGroup& g) {
  // 1. Copy every lane of the group's bank into lane 0 of its session's
  // chain (a 1-lane bank of the same class). The chain parked at open (or
  // rebuilt since) is overwritten wholesale by copy_lane, so the lane's
  // stream continues bit-exactly.
  for (std::size_t lane = 0; lane < g.members.size(); ++lane) {
    auto it = shard.sessions.find(g.members[lane]);
    if (it == shard.sessions.end()) continue;
    if (g.sealed) g.bank->copy_lane(lane, it->second.chain->bank(), 0);
    it->second.group = nullptr;
  }
  // 2. Detach the backlog, delete the group (replayed jobs must see
  // ungrouped sessions and a groups list without `g`), then replay every
  // queued block through the scalar path in per-lane FIFO order.
  std::vector<std::deque<SessionJob>> backlog;
  backlog.swap(g.backlog);
  for (auto itg = shard.groups.begin(); itg != shard.groups.end(); ++itg) {
    if (itg->get() == &g) {
      shard.groups.erase(itg);
      break;
    }
  }
  for (auto& lane : backlog) {
    while (!lane.empty()) {
      SessionJob job = std::move(lane.front());
      lane.pop_front();
      run_job(shard, job);
    }
  }
  refresh_batch_blocked(shard);
}

void SessionRuntime::flush_stale_groups(Shard& shard, std::int64_t now_us) {
  if (opts_.batch_linger_us <= 0) return;
  std::vector<BatchGroup*> stale;
  for (auto& up : shard.groups) {
    if (up->blocked_since_us != 0 &&
        now_us - up->blocked_since_us >= opts_.batch_linger_us) {
      stale.push_back(up.get());
    }
  }
  for (BatchGroup* g : stale) dissolve_group(shard, *g);
}

void SessionRuntime::refresh_batch_blocked(Shard& shard) {
  std::int64_t min_blocked = 0;
  for (const auto& up : shard.groups) {
    if (up->blocked_since_us != 0 &&
        (min_blocked == 0 || up->blocked_since_us < min_blocked)) {
      min_blocked = up->blocked_since_us;
    }
  }
  shard.batch_blocked_us.store(min_blocked, std::memory_order_relaxed);
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
    const std::int64_t now =
        opts_.batch_linger_us > 0 ? steady_us() : 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& sh = *shards_[i];
      // A quiet shard still needs a visit when a lockstep group's backlog
      // has been blocked past the linger budget (no new submission will
      // come along to pump it).
      bool stale = false;
      if (opts_.batch_linger_us > 0) {
        const std::int64_t b =
            sh.batch_blocked_us.load(std::memory_order_relaxed);
        stale = b != 0 && now - b >= opts_.batch_linger_us;
      }
      if (sh.ring.size() == 0 && !stale) continue;
      if (sh.busy.exchange(true, std::memory_order_acquire)) continue;
      SessionJob job;
      while (sh.ring.try_pop(job)) {
        run_job(sh, job);
        job = SessionJob{};  // release payload before the next pop
        pending_.fetch_sub(1, std::memory_order_release);
        publish_inflight();
      }
      if (stale) flush_stale_groups(sh, now);
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
  // Workers drained every admitted job; blocks still queued in lockstep
  // groups flush here (single-threaded now), so every done callback has
  // fired by the time stop() returns.
  for (auto& sh : shards_) {
    while (!sh->groups.empty()) dissolve_group(*sh, *sh->groups.back());
  }
  for (auto& sh : shards_) sh->ring.close();
}

}  // namespace dsadc::runtime
