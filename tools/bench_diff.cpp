// Compare two bench-telemetry records (or directories of them) and gate
// on regressions.
//
//   bench_diff BASELINE CURRENT [--tolerance FRAC] [--gate PATTERN]...
//              [--quiet]
//
// BASELINE and CURRENT are either BENCH_<name>.json files written by
// obs::BenchReport or directories scanned for such files (matched by file
// name). Every numeric metric present on both sides is reported with its
// relative delta; metrics whose name matches a --gate substring (all
// shared metrics when no --gate is given) fail the run when they regress
// by more than --tolerance (default 0.20, i.e. 20%).
//
// Regression direction is inferred from the metric name: names containing
// a lower-is-better keyword (ms, seconds, power, error, area, adders,
// registers, macs) regress upward, everything else (throughput, speedup,
// snr, ...) regresses downward. A current-side record with ok=false fails
// regardless of metrics.
//
// Absolute numbers only compare on the same host shape, as in
// perfbench/compare.py. A record's shape is its "host" object (cores, CPU
// model, SIMD tiers; obs::BenchReport::set_host); a record without one has
// an unknown shape that matches nothing. Across shapes only the ratio
// metrics compare -- names containing "speedup" or "ratio", two legs
// measured in the same run -- and every other metric is reported as not
// compared.
//
// After the per-metric lines, a ranked summary lists the worst gated
// regressions and the best improvements (--top N, default 5) so a long
// diff leads with what matters.
//
// Exit codes, in precedence order:
//   1  out-of-tolerance regression or current-side ok=false
//   2  usage / IO error (unreadable record, nothing to compare)
//   3  a gated metric or record present in the baseline is missing on the
//      current side (so a silently-dropped benchmark cannot pass CI)
//   4  a gated absolute metric was refused: the host shapes differ
//   0  no regression, nothing missing, nothing refused
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/verify/json.h"

namespace {

namespace fs = std::filesystem;
using dsadc::verify::Json;
using dsadc::verify::json_parse;

Json load_json(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return json_parse(buf.str());
}

/// File name -> parsed record, for a file or a directory of BENCH_*.json.
std::map<std::string, Json> load_records(const std::string& arg) {
  std::map<std::string, Json> out;
  const fs::path path(arg);
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::directory_iterator(path)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 &&
          entry.path().extension() == ".json") {
        out[name] = load_json(entry.path());
      }
    }
  } else {
    out[path.filename().string()] = load_json(path);
  }
  return out;
}

bool lower_is_better(const std::string& metric) {
  // "_ms"/"_s" only as a suffix ("items_per_second" must stay
  // higher-is-better); the rest anywhere in the name.
  static const char* const kSuffixes[] = {"_ms", "_us", "_ns"};
  for (const char* sfx : kSuffixes) {
    const std::size_t n = std::strlen(sfx);
    if (metric.size() >= n && metric.compare(metric.size() - n, n, sfx) == 0) {
      return true;
    }
  }
  static const char* const kKeywords[] = {"power",  "error",     "area",
                                          "adders", "macs",      "registers",
                                          "latency", "wall"};
  for (const char* kw : kKeywords) {
    if (metric.find(kw) != std::string::npos) return true;
  }
  return false;
}

/// Ratio metrics (two legs of one run) compare across host shapes.
bool host_independent(const std::string& metric) {
  return metric.find("speedup") != std::string::npos ||
         metric.find("ratio") != std::string::npos;
}

/// The record's host shape as canonical JSON, or "" when it records none.
std::string host_shape(const Json& record) {
  return record.contains("host") ? record.at("host").dump() : "";
}

bool gated(const std::string& metric, const std::vector<std::string>& gates) {
  if (gates.empty()) return true;
  for (const std::string& g : gates) {
    if (metric.find(g) != std::string::npos) return true;
  }
  return false;
}

/// One compared metric, kept for the ranked summary.
struct Delta {
  std::string file;
  std::string key;
  double base = 0.0;
  double cur = 0.0;
  double delta = 0.0;  ///< signed relative change
  bool lower = false;  ///< lower-is-better metric
  bool gate = false;
  bool bad = false;

  /// Adverse magnitude: positive when the metric moved in the regressing
  /// direction, regardless of which direction that is.
  double adverse() const { return lower ? delta : -delta; }
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::vector<std::string> gates;
  double tolerance = 0.20;
  std::size_t top = 5;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_diff: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--tolerance") {
      tolerance = std::atof(next());
    } else if (arg == "--top") {
      top = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--gate") {
      gates.emplace_back(next());
    } else if (arg == "--quiet" || arg == "-q") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_diff BASELINE CURRENT [--tolerance FRAC]\n"
          "                  [--gate PATTERN]... [--top N] [--quiet]\n"
          "exit: 0 ok, 1 regression, 2 usage/IO, 3 gated metric missing,\n"
          "      4 gated absolute metric refused across host shapes\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_diff: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr, "bench_diff: need BASELINE and CURRENT\n");
    return 2;
  }

  try {
    const auto baseline = load_records(positional[0]);
    const auto current = load_records(positional[1]);

    bool regressed = false;
    bool missing = false;
    bool refused = false;
    std::vector<Delta> deltas;
    std::size_t compared_files = 0;
    for (const auto& [file, base] : baseline) {
      const auto it = current.find(file);
      if (it == current.end()) {
        std::printf("%s: missing on current side\n", file.c_str());
        missing = true;
        continue;
      }
      const Json& cur = it->second;
      ++compared_files;

      if (cur.contains("ok") && !cur.at("ok").as_bool()) {
        std::printf("%s: current run reports ok=false\n", file.c_str());
        regressed = true;
      }
      if (!base.contains("metrics") || !cur.contains("metrics")) continue;
      const Json& bm = base.at("metrics");
      const Json& cm = cur.at("metrics");
      const std::string base_shape = host_shape(base);
      const std::string cur_shape = host_shape(cur);
      const bool same_shape = !base_shape.empty() && base_shape == cur_shape;
      if (!same_shape && !quiet) {
        std::printf("%s: host shapes differ (%s vs %s); only ratio metrics "
                    "compare\n",
                    file.c_str(),
                    base_shape.empty() ? "unrecorded" : base_shape.c_str(),
                    cur_shape.empty() ? "unrecorded" : cur_shape.c_str());
      }

      for (const std::string& key : bm.keys()) {
        if (bm.at(key).type() != Json::Type::kNumber) continue;
        if (!cm.contains(key) ||
            cm.at(key).type() != Json::Type::kNumber) {
          if (gated(key, gates)) {
            std::printf("%s %s: gated metric missing on current side\n",
                        file.c_str(), key.c_str());
            missing = true;
          } else if (!quiet) {
            std::printf("%s %s: missing on current side (ungated)\n",
                        file.c_str(), key.c_str());
          }
          continue;
        }
        if (!same_shape && !host_independent(key)) {
          if (gated(key, gates)) {
            std::printf("%s %s: gated absolute metric refused across host "
                        "shapes\n",
                        file.c_str(), key.c_str());
            refused = true;
          } else if (!quiet) {
            std::printf("%s %s: not compared (host shape)\n", file.c_str(),
                        key.c_str());
          }
          continue;
        }
        Delta d;
        d.file = file;
        d.key = key;
        d.base = bm.at(key).as_double();
        d.cur = cm.at(key).as_double();
        d.delta = d.base != 0.0 ? (d.cur - d.base) / std::abs(d.base)
                                : (d.cur == 0.0 ? 0.0 : INFINITY);
        d.lower = lower_is_better(key);
        d.gate = gated(key, gates);
        d.bad = d.gate && d.adverse() > tolerance;
        regressed = regressed || d.bad;
        if (!quiet || d.bad) {
          std::printf("%s %s: %.6g -> %.6g (%+.1f%%)%s%s\n", d.file.c_str(),
                      d.key.c_str(), d.base, d.cur, 100.0 * d.delta,
                      d.gate ? "" : " [ungated]",
                      d.bad ? "  REGRESSION" : "");
        }
        deltas.push_back(std::move(d));
      }
    }

    // Ranked summary: worst gated regressions first, then the best
    // improvements, both by adverse/favourable magnitude.
    if (top > 0 && !deltas.empty()) {
      std::vector<const Delta*> worst;
      std::vector<const Delta*> bestv;
      for (const Delta& d : deltas) {
        if (!std::isfinite(d.delta) || d.delta == 0.0) {
          if (d.adverse() > 0.0 && d.gate) worst.push_back(&d);
          continue;
        }
        (d.adverse() > 0.0 ? (d.gate ? worst : bestv) : bestv)
            .push_back(&d);
      }
      // bestv picked up ungated adverse moves above; keep only genuine
      // improvements there.
      bestv.erase(std::remove_if(bestv.begin(), bestv.end(),
                                 [](const Delta* d) {
                                   return d->adverse() >= 0.0;
                                 }),
                  bestv.end());
      const auto by_adverse = [](const Delta* a, const Delta* b) {
        return a->adverse() > b->adverse();
      };
      std::sort(worst.begin(), worst.end(), by_adverse);
      std::sort(bestv.begin(), bestv.end(),
                [](const Delta* a, const Delta* b) {
                  return a->adverse() < b->adverse();
                });
      if (!worst.empty()) {
        std::printf("\nworst regressions (gated):\n");
        for (std::size_t i = 0; i < worst.size() && i < top; ++i) {
          const Delta& d = *worst[i];
          std::printf("  %2zu. %s %s %+.1f%% (%.6g -> %.6g)%s\n", i + 1,
                      d.file.c_str(), d.key.c_str(), 100.0 * d.delta, d.base,
                      d.cur, d.bad ? "  OVER TOLERANCE" : "");
        }
      }
      if (!bestv.empty() && !quiet) {
        std::printf("\nbest improvements:\n");
        for (std::size_t i = 0; i < bestv.size() && i < top; ++i) {
          const Delta& d = *bestv[i];
          std::printf("  %2zu. %s %s %+.1f%% (%.6g -> %.6g)\n", i + 1,
                      d.file.c_str(), d.key.c_str(), 100.0 * d.delta, d.base,
                      d.cur);
        }
      }
    }

    if (compared_files == 0) {
      std::fprintf(stderr, "bench_diff: no records to compare\n");
      return 2;
    }
    if (!quiet) {
      std::printf("\nbench_diff: %zu record(s), tolerance %.0f%%: %s%s%s\n",
                  compared_files, 100.0 * tolerance,
                  regressed ? "REGRESSION" : "ok",
                  missing ? " (missing gated data)" : "",
                  refused ? " (gated absolute metrics refused: host shapes "
                            "differ)"
                          : "");
    }
    if (regressed) return 1;
    if (missing) return 3;
    if (refused) return 4;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_diff: %s\n", e.what());
    return 2;
  }
}
