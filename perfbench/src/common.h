// Shared plumbing for the perfbench program: clocks, order statistics, the
// metric report, and the benchmark's own in-memory span recorder.
//
// The recorder lives in the benchmark, not in src/: spans wrap the calls
// the benchmark makes into each layer's public functions (client sends,
// frame receipts, replayed layer calls). They stay in per-thread memory
// and are written out once, at exit, as a Chrome trace-event file.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();                 ///< steady clock
std::int64_t cpu_ns();                 ///< process CPU (user+sys, all threads)
double peak_rss_mb();                  ///< ru_maxrss
void sleep_until_ns(std::int64_t t_ns);

double median(std::vector<double> v);
/// Nearest-rank quantile, p in [0, 1].
double quantile(std::vector<double> v, double p);
/// Highest of the usual tail percentiles (0.99, 0.95, 0.9, 0.75, 0.5)
/// that leaves at least 10 samples beyond it; 0.5 when none does.
double tail_percentile(std::size_t samples);

/// Run `f` (one sample per call, each under a span named `span`) until
/// `seconds` have passed and at least `min_reps` samples exist; returns
/// the samples.
std::vector<double> repeat_for(const char* span, double seconds,
                               std::size_t min_reps,
                               const std::function<double()>& f);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation measured, by name. perfbench/run.py picks
/// the contract metrics out of it; the rest goes to the results file.
struct Report {
  std::vector<Metric> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    values.push_back({name, value, unit});
  }
};

// --- span recorder -------------------------------------------------------

namespace spans {

void set_enabled(bool on);
bool enabled();
/// Intern a span name (call once per site and keep the id).
std::uint32_t name_id(const char* name);
/// Record one span. `id` ties spans of one request together (for frames:
/// connection << 48 | channel << 32 | seq); `parent` names the span that
/// caused this one (same encoding, 0 = none).
void record(std::uint32_t name, std::uint64_t id, std::int64_t t0_ns,
            std::int64_t t1_ns, std::uint64_t parent = 0);
/// Write the stored spans as Chrome trace events. Returns false on I/O
/// failure.
bool write_chrome(const std::string& path);

/// RAII span around a scope; a no-op while the recorder is off.
class Scope {
 public:
  explicit Scope(std::uint32_t name, std::uint64_t id = 0)
      : name_(name), id_(id), t0_(enabled() ? now_ns() : 0) {}
  ~Scope() {
    if (t0_ != 0) record(name_, id_, t0_, now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t name_;
  std::uint64_t id_;
  std::int64_t t0_;
};

}  // namespace spans

/// Keep a value observable so timed work is not optimised away.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "r"(&v) : "memory");
}

}  // namespace perfbench
