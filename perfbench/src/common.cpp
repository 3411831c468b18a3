#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void sleep_until_ns(std::int64_t t_ns) {
  // Coarse sleep, then a short spin: the open-loop generator's lateness is
  // a reported metric, so the wake-up itself should not add to it.
  for (;;) {
    const std::int64_t left = t_ns - now_ns();
    if (left <= 0) return;
    if (left > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
    } else {
      std::this_thread::yield();
    }
  }
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double tail_percentile(std::size_t samples) {
  for (const double p : {0.99, 0.95, 0.9, 0.75}) {
    if (static_cast<double>(samples) * (1.0 - p) >= 10.0) return p;
  }
  return 0.5;
}

std::vector<double> repeat_for(const char* span, double seconds,
                               std::size_t min_reps,
                               const std::function<double()>& f) {
  const std::uint32_t id = spans::name_id(span);
  std::vector<double> out;
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (out.size() < min_reps || now_ns() < end) {
    spans::Scope sp(id);
    out.push_back(f());
  }
  return out;
}

namespace spans {
namespace {

struct Rec {
  std::uint32_t name;
  std::uint32_t thread;
  std::uint64_t id;
  std::uint64_t parent;
  std::int64_t t0, t1;
};

struct Agg {
  std::int64_t ns = 0;
  std::uint64_t n = 0;
};

/// One thread's spans. Owned by the registry so they outlive the thread;
/// the mutex is uncontended except while totals are read.
struct Buffer {
  std::mutex mu;
  std::uint32_t thread = 0;
  std::vector<Rec> recs;
  std::vector<Agg> agg;  // indexed by name id
};

/// Stored-span cap: aggregates stay exact past it, only the trace file
/// is truncated.
constexpr std::size_t kMaxStored = 200000;

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> buffers;
  std::vector<std::string> names;
  std::unordered_map<std::string, std::uint32_t> ids;
  std::atomic<std::size_t> stored{0};
  std::atomic<bool> on{false};
};

Registry& reg() {
  static Registry r;
  return r;
}

Buffer& local() {
  thread_local Buffer* b = nullptr;
  if (b == nullptr) {
    auto& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<Buffer>());
    b = r.buffers.back().get();
    b->thread = static_cast<std::uint32_t>(r.buffers.size());
  }
  return *b;
}

}  // namespace

void set_enabled(bool on) { reg().on.store(on, std::memory_order_release); }
bool enabled() { return reg().on.load(std::memory_order_relaxed); }

std::uint32_t name_id(const char* name) {
  auto& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  const auto it = r.ids.find(name);
  if (it != r.ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(r.names.size());
  r.names.emplace_back(name);
  r.ids.emplace(name, id);
  return id;
}

void record(std::uint32_t name, std::uint64_t id, std::int64_t t0_ns,
            std::int64_t t1_ns, std::uint64_t parent) {
  if (!enabled()) return;
  Buffer& b = local();
  std::lock_guard<std::mutex> lock(b.mu);
  if (b.agg.size() <= name) b.agg.resize(name + 1);
  b.agg[name].ns += t1_ns - t0_ns;
  ++b.agg[name].n;
  auto& r = reg();
  if (r.stored.load(std::memory_order_relaxed) < kMaxStored) {
    r.stored.fetch_add(1, std::memory_order_relaxed);
    b.recs.push_back({name, b.thread, id, parent, t0_ns, t1_ns});
  }
}

bool write_chrome(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (auto& b : r.buffers) {
    std::lock_guard<std::mutex> bl(b->mu);
    for (const Rec& rec : b->recs) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}",
                   first ? "" : ",\n", r.names[rec.name].c_str(), rec.thread,
                   static_cast<double>(rec.t0) * 1e-3,
                   static_cast<double>(rec.t1 - rec.t0) * 1e-3,
                   static_cast<unsigned long long>(rec.id),
                   static_cast<unsigned long long>(rec.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace spans
}  // namespace perfbench
