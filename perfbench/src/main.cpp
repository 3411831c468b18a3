// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload serve_lockstep|serve_churn|design_flow --seed N
//             --seconds S --trace 0|1 [--inject-fault] [--scale X]
//
// Prints progress on stderr and, as its last stdout line, one JSON object:
// every value it measured (name -> value, unit), the host shape, and the
// attempted/failed operation counts. perfbench/run.py builds this program
// and turns that line into the benchmark's contract output.
//
// Exit status: 0 when every operation was correct, 1 when any output
// mismatched its model or any check failed, 2 on a usage or environment
// error (nothing measured).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "flow.h"
#include "layers.h"
#include "serve.h"
#include "src/decimator/simd.h"
#include "src/obs/obs.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  RunOptions run;
  bool trace = false;
  bool setup_probe = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_lockstep|serve_churn|design_flow --seed N --seconds S "
               "--trace 0|1 [--inject-fault] [--scale X]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = val();
    } else if (k == "--seed") {
      a.run.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.run.seconds = std::strtod(val().c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = val() == "1";
    } else if (k == "--scale") {
      a.run.scale = std::strtod(val().c_str(), nullptr);
    } else if (k == "--inject-fault") {
      a.run.inject_fault = true;
    } else if (k == "--setup-probe") {
      a.setup_probe = true;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload != "serve_lockstep" && a.workload != "serve_churn" &&
      a.workload != "design_flow") {
    usage("unknown workload");
  }
  if (!(a.run.seconds > 0.0) || !(a.run.scale > 0.0)) {
    usage("--seconds and --scale must be positive");
  }
  a.run.traced = a.trace;
  return a;
}

/// The program under test is pinned by the benchmark; an environment knob
/// that would re-size or re-route it makes results incomparable.
void refuse_knobs() {
  static const char* const kExact[] = {
      "DSADC_RUNTIME_THREADS", "DSADC_SIMD", "DSADC_STORE_OUT",
      "DSADC_OBS_DISABLE"};
  static const char* const kPrefix[] = {"DSADC_SERVICE_", "DSADC_CODEGEN"};
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string name = kv.substr(0, kv.find('='));
    bool bad = false;
    for (const char* x : kExact) bad = bad || name == x;
    for (const char* p : kPrefix) bad = bad || name.rfind(p, 0) == 0;
    if (bad) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                   name.c_str());
      std::exit(2);
    }
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) return line.substr(p + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

/// Set-up samples from fresh processes: each pays the cold costs (the
/// lazy preset design, the first flow) that a warm process no longer does.
std::vector<double> setup_probes(const Args& a, int n) {
  char self[4096] = {};
  const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) throw std::runtime_error("cannot locate own executable");
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    const std::string cmd =
        std::string("'") + self + "' --setup-probe --workload " + a.workload +
        " --seed " + std::to_string(a.run.seed) + " --seconds 1 --scale " +
        std::to_string(a.run.scale);
    std::FILE* p = ::popen(cmd.c_str(), "r");
    if (p == nullptr) throw std::runtime_error("setup probe: popen failed");
    double v = 0.0;
    const int got = std::fscanf(p, "setup_s %lf", &v);
    if (::pclose(p) != 0 || got != 1) {
      throw std::runtime_error("setup probe failed");
    }
    out.push_back(v);
  }
  return out;
}

double probe_once(const Args& a) {
  if (a.workload == "design_flow") return flow_setup_probe(a.run);
  return serve_setup_probe(a.workload == "serve_lockstep"
                               ? ServeKind::kLockstep
                               : ServeKind::kChurn,
                           a.run);
}

/// Plans for the layer replays: the workload's own where it has one, a
/// smaller seed-drawn one otherwise.
Plan small_plan(ServeKind kind, std::uint64_t seed) {
  Plan p = make_plan(kind, seed, 0.25);
  run_model(p);
  return p;
}

double value_of(const Report& r, const std::string& name) {
  for (const auto& m : r.values) {
    if (m.name == name) return m.value;
  }
  throw std::runtime_error("value not measured: " + name);
}

void run(const Args& a, Report& report) {
  const RunOptions& o = a.run;
  const bool serving = a.workload != "design_flow";
  if (!a.trace) {
    // Six fresh-process set-up samples plus this process's own.
    const std::vector<double> probes = setup_probes(a, 6);
    std::vector<double> setup = probes;
    if (serving) {
      run_serve(a.workload == "serve_lockstep" ? ServeKind::kLockstep
                                               : ServeKind::kChurn,
                o, report);
    } else {
      run_design_flow(o, report);
    }
    setup.push_back(value_of(report, "setup_in_process_s"));
    report.set("setup_s", median(setup), "s");
    report.set("setup_samples", static_cast<double>(setup.size()), "count");
    return;
  }

  // Traced: the workload's own e2e path (spans on, alternating with
  // untraced slices), then the layer replays.
  RunOptions e2e = o;
  e2e.seconds = o.seconds * 0.25;
  LayerInputs in;
  Plan own, lock, churn;
  if (serving) {
    const ServeKind kind = a.workload == "serve_lockstep"
                               ? ServeKind::kLockstep
                               : ServeKind::kChurn;
    own = run_serve(kind, e2e, report);
    in.serve_cpu_ns_per_code = value_of(report, "serve_cpu_ns_per_code");
    flow_ledger_probe(o.seed, o.seconds * 0.08, report);
    lock = kind == ServeKind::kLockstep ? own
                                        : small_plan(ServeKind::kLockstep, o.seed);
    churn = kind == ServeKind::kChurn ? own
                                      : small_plan(ServeKind::kChurn, o.seed);
  } else {
    run_design_flow(e2e, report);
    lock = small_plan(ServeKind::kLockstep, o.seed);
    churn = small_plan(ServeKind::kChurn, o.seed);
    own = lock;
    const ServeProbe sp = serve_probe(own, o.seconds * 0.1);
    in.serve_cpu_ns_per_code = sp.cpu_ns_per_code;
    report.set("serve_cpu_ns_per_code", sp.cpu_ns_per_code, "ns");
    report.set("service.client.send_blocked_frac", sp.send_blocked_frac,
               "frac");
    report.set("loadgen.late_p99_ms", sp.late_p99_ms, "ms");
    report.attempted += sp.attempted;
    report.failed += sp.failed;
  }
  in.own = &own;
  in.lockstep = &lock;
  in.churn = &churn;
  layer_suite(in, o.seconds * 0.4, report);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  refuse_knobs();
  dsadc::obs::set_enabled(false);  // measure the data path, not counters

  try {
    if (a.setup_probe) {
      std::printf("setup_s %.9f\n", probe_once(a));
      return 0;
    }
    Report report;
    run(a, report);
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("failed_frac",
               report.attempted == 0
                   ? 1.0
                   : static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "frac");
    if (a.trace) {
      const std::string path = ".bench_build/traces/" + a.workload + ".json";
      if (!spans::write_chrome(path)) {
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
      }
    }

    namespace simd = dsadc::decim::simd;
    std::string line = "{\"correct\": ";
    line += report.failed == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(report.attempted);
    line += ", \"failed\": " + std::to_string(report.failed);
    line += ", \"host\": {\"cores\": " +
            std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
            ", \"cpu_model\": \"" + json_escape(cpu_model()) +
            "\", \"simd_best\": \"" + simd::tier_name(simd::best_tier()) +
            "\", \"simd_active\": \"" + simd::tier_name(simd::active_tier()) +
            "\", \"compiler\": \"" + PERFBENCH_COMPILER +
            "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
            "\", \"seed\": " + std::to_string(a.run.seed) + "}";
    line += ", \"values\": {";
    bool first = true;
    for (const auto& m : report.values) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", m.value);
      line += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
              ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
