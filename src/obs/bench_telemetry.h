// Machine-readable bench telemetry.
//
// Every bench binary constructs a BenchReport at startup, sets its key
// figures of merit while printing its human-readable tables, and returns
// `report.finish(ok)` from main. finish() writes BENCH_<name>.json next to
// the text output -- into $DSADC_BENCH_OUT when set (so CI and local runs
// do not collide), else the current directory -- giving the perf history
// a machine-readable record per run:
//
//   {"bench": "e2e_snr", "ok": true, "wall_ms": 812.4,
//    "metrics": {"snr_db_5mhz": 84.5, ...}}
//
// A bench whose absolute numbers depend on the machine also records the
// host shape (set_host): core count, CPU model and SIMD tiers, as
//
//   "host": {"cores": 4, "cpu_model": "...", "simd_best": "avx512",
//            "simd_active": "avx512"}
//
// tools/bench_diff compares absolute metrics only between records of the
// same host shape.
#pragma once

#include <chrono>
#include <map>
#include <string>

namespace dsadc::obs {

class BenchReport {
 public:
  /// `name` without the bench_ prefix; the record lands in
  /// output_dir() + "/BENCH_" + name + ".json".
  explicit BenchReport(std::string name);

  /// Destructor writes a record with ok=false if finish() was never
  /// reached (a crash mid-bench still leaves evidence behind).
  ~BenchReport();

  void set(const std::string& key, double value);
  void set(const std::string& key, const std::string& value);
  /// Keeps string literals away from the bool overload.
  void set(const std::string& key, const char* value);
  void set(const std::string& key, bool value);
  /// Convenience for the headline perf figure.
  void set_throughput(double samples_per_second);
  /// Record the host shape: online cores and the /proc/cpuinfo model name
  /// (read here), and the best and active SIMD tier names (the caller
  /// knows them; this layer does not).
  void set_host(const std::string& simd_best, const std::string& simd_active);

  /// Write the JSON record (once) and map ok to a process exit code.
  int finish(bool ok);

  /// $DSADC_BENCH_OUT or ".".
  static std::string output_dir();
  std::string output_path() const;

 private:
  void write(bool ok);

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::map<std::string, std::string> fields_;  ///< key -> JSON-encoded value
  std::string host_;  ///< JSON object, empty until set_host()
  bool written_ = false;
};

}  // namespace dsadc::obs
