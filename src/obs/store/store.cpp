#include "src/obs/store/store.h"

#ifndef DSADC_OBS_COMPILED_OFF

#include <stdlib.h>  // mkdtemp

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/obs/store/query.h"
#include "src/obs/store/reader.h"
#include "src/obs/store/tracker.h"
#include "src/obs/store/writer.h"

namespace dsadc::obs::store {
namespace {

/// Staged events per thread before hand-off to the drainer.
constexpr std::size_t kThreadFlushEvents = kBlockEvents / 4;

/// One thread's staging buffer. The owning thread appends under `mu`
/// (uncontended in steady state); close() takes the same mutex to steal
/// the tail of threads that are still alive at finalize time.
struct ThreadBuf {
  std::mutex mu;
  std::vector<Event> events;
  std::uint32_t tid = 0;
};

struct State {
  std::mutex mu;  ///< guards everything below
  std::condition_variable cv;
  std::deque<std::vector<Event>> pending;  ///< filled buffers for drainer
  std::vector<std::shared_ptr<ThreadBuf>> threads;
  std::unique_ptr<StoreWriter> writer;
  std::thread drainer;
  bool open = false;
  bool drain_stop = false;
  std::uint32_t next_tid = 1;
  std::uint64_t dropped = 0;  ///< events that arrived after close
};

/// Leaked so late thread exits (after static destruction) stay safe.
State& state() {
  static State* s = new State();
  return *s;
}

struct Interner {
  std::mutex mu;
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<std::string> names;
  Interner() : names(1, std::string()) { ids.emplace(std::string(), 0u); }
};

Interner& interner() {
  static Interner* s = new Interner();
  return *s;
}

std::vector<std::string> strings_snapshot() {
  Interner& in = interner();
  std::lock_guard<std::mutex> lock(in.mu);
  return in.names;
}

/// -1 undecided (consult DSADC_STORE_OUT on first use), 0 off, 1 on.
std::atomic<int> g_enabled{-1};
std::atomic<std::uint64_t> g_txn_ids{0};

void hand_off(std::vector<Event>&& events) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.open) {
    s.dropped += events.size();
    return;
  }
  s.pending.push_back(std::move(events));
  s.cv.notify_one();
}

/// Registers on first use; the handle's destructor flushes whatever the
/// thread staged before it exited.
struct ThreadBufHandle {
  std::shared_ptr<ThreadBuf> buf;
  ~ThreadBufHandle() {
    if (!buf) return;
    std::vector<Event> tail;
    {
      std::lock_guard<std::mutex> lock(buf->mu);
      tail.swap(buf->events);
    }
    if (!tail.empty()) hand_off(std::move(tail));
  }
};

ThreadBuf& thread_buf() {
  thread_local ThreadBufHandle handle;
  if (!handle.buf) {
    handle.buf = std::make_shared<ThreadBuf>();
    State& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    handle.buf->tid = s.next_tid++;
    s.threads.push_back(handle.buf);
  }
  return *handle.buf;
}

void drain_loop() {
  State& s = state();
  for (;;) {
    std::vector<Event> batch;
    StoreWriter* writer = nullptr;
    {
      std::unique_lock<std::mutex> lock(s.mu);
      s.cv.wait(lock, [&s] { return s.drain_stop || !s.pending.empty(); });
      if (s.pending.empty()) return;  // drain_stop and fully drained
      batch = std::move(s.pending.front());
      s.pending.pop_front();
      writer = s.writer.get();
    }
    // The writer outlives the drainer (close() joins before finalize),
    // so touching it outside the lock is safe.
    writer->append(batch);
    writer->flush_strings(strings_snapshot());
  }
}

/// DSADC_TRACE_OUT export: the Chrome file, the store directory opened
/// at first use, and whether that is a temp directory to remove after.
std::string g_trace_out;
std::string g_trace_dir;
bool g_trace_dir_is_temp = false;

void export_trace_at_exit() {
  close();
  {
    const StoreReader reader(g_trace_dir);
    if (reader.ok()) export_chrome(reader, Query{}, g_trace_out);
  }
  if (g_trace_dir_is_temp) {
    std::error_code ec;
    std::filesystem::remove_all(g_trace_dir, ec);
  }
}

/// A fresh directory under the system temp dir for a DSADC_TRACE_OUT
/// store; empty on failure.
std::string make_temp_store_dir() {
  std::error_code ec;
  std::string tmpl =
      (std::filesystem::temp_directory_path(ec) / "dsadc_trace_XXXXXX")
          .string();
  return !ec && ::mkdtemp(tmpl.data()) != nullptr ? tmpl : std::string();
}

void open_from_env() {
  const char* dir = std::getenv("DSADC_STORE_OUT");
  const char* trace = std::getenv("DSADC_TRACE_OUT");
  const bool has_dir = dir != nullptr && dir[0] != '\0';
  if (trace == nullptr || trace[0] == '\0') {
    if (has_dir) open(dir);
    return;
  }
  g_trace_out = trace;
  g_trace_dir = has_dir ? std::string(dir) : make_temp_store_dir();
  g_trace_dir_is_temp = !has_dir;
  // Registered after open()'s own close hook, so it runs first.
  if (!g_trace_dir.empty() && open(g_trace_dir)) {
    std::atexit(export_trace_at_exit);
  }
}

bool init_enabled() {
  static const bool once = (open_from_env(), true);  // sets g_enabled on open
  (void)once;
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, 0, std::memory_order_relaxed);
  return g_enabled.load(std::memory_order_relaxed) != 0;
}

}  // namespace

bool enabled() {
  const int s = g_enabled.load(std::memory_order_relaxed);
  if (s >= 0) return s != 0;
  return init_enabled();
}

bool open(const std::string& dir) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.open) return false;
  auto writer = std::make_unique<StoreWriter>(dir);
  if (!writer->ok()) return false;
  s.writer = std::move(writer);
  s.pending.clear();
  s.dropped = 0;
  s.drain_stop = false;
  s.drainer = std::thread(drain_loop);
  s.open = true;
  g_enabled.store(1, std::memory_order_relaxed);
  static const bool atexit_registered = [] {
    std::atexit([] { close(); });
    return true;
  }();
  (void)atexit_registered;
  return true;
}

void close() {
  State& s = state();
  std::thread drainer;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.open) return;
    g_enabled.store(0, std::memory_order_relaxed);
    s.open = false;
    // Steal the staged tail of every registered thread. Emitters that
    // already passed the enabled() check land in s.dropped via
    // hand_off(); nothing races the buffers themselves.
    for (const auto& tb : s.threads) {
      std::lock_guard<std::mutex> tlock(tb->mu);
      if (!tb->events.empty()) {
        s.pending.push_back(std::move(tb->events));
        tb->events.clear();
      }
    }
    s.drain_stop = true;
    s.cv.notify_one();
    drainer = std::move(s.drainer);
  }
  if (drainer.joinable()) drainer.join();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.writer) {
      s.writer->finalize(strings_snapshot());
      s.writer.reset();
    }
  }
}

void emit(const Event& e) {
  if (!enabled()) return;
  Event ev = e;
  if (ev.ts_us == 0) ev.ts_us = now_us();
  if (const TxnContext* ctx = current_txn()) {
    if (ev.txn == 0) ev.txn = ctx->id;
    if (ev.channel == kNoChannel) ev.channel = ctx->channel;
    if (ev.stage == kNoStage) ev.stage = ctx->stage;
  }
  ThreadBuf& buf = thread_buf();
  std::vector<Event> filled;
  {
    std::lock_guard<std::mutex> lock(buf.mu);
    ev.tid = buf.tid;
    buf.events.push_back(ev);
    if (buf.events.size() >= kThreadFlushEvents) {
      filled.swap(buf.events);
      buf.events.reserve(kThreadFlushEvents);
    }
  }
  if (!filled.empty()) hand_off(std::move(filled));
}

void emit_batch(const Event* events, std::size_t n) {
  if (n == 0 || !enabled()) return;
  const TxnContext* ctx = current_txn();
  ThreadBuf& buf = thread_buf();
  std::vector<Event> filled;
  {
    std::lock_guard<std::mutex> lock(buf.mu);
    for (std::size_t i = 0; i < n; ++i) {
      Event ev = events[i];
      if (ev.ts_us == 0) ev.ts_us = now_us();
      if (ctx != nullptr) {
        if (ev.txn == 0) ev.txn = ctx->id;
        if (ev.channel == kNoChannel) ev.channel = ctx->channel;
        if (ev.stage == kNoStage) ev.stage = ctx->stage;
      }
      ev.tid = buf.tid;
      buf.events.push_back(ev);
    }
    if (buf.events.size() >= kThreadFlushEvents) {
      filled.swap(buf.events);
      buf.events.reserve(kThreadFlushEvents);
    }
  }
  if (!filled.empty()) hand_off(std::move(filled));
}

std::uint32_t intern(std::string_view name) {
  Interner& in = interner();
  std::lock_guard<std::mutex> lock(in.mu);
  // Transparent lookup would avoid this copy; interning is off the hot
  // path (call sites cache ids in statics), so keep the map simple.
  std::string key(name);
  const auto it = in.ids.find(key);
  if (it != in.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(in.names.size());
  in.names.push_back(key);
  in.ids.emplace(std::move(key), id);
  return id;
}

std::int64_t now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint64_t next_txn_id() {
  return g_txn_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace dsadc::obs::store

#endif  // DSADC_OBS_COMPILED_OFF
