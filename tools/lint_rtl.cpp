// Lint the paper's decimation-filter netlists.
//
//   lint_rtl [--json FILE] [--baseline FILE] [--suppress PATTERN]...
//            [--module NAME] [--quiet] [--sim-crosscheck]
//            [--optimize] [--proof-dump FILE]
//            [--opt-baseline FILE] [--write-opt-baseline FILE]
//
// Elaborates the full paper chain (Sinc4/Sinc4/Sinc6, Saramaki halfband,
// CSD scaler, FIR equalizer) plus every per-stage module, runs the static
// analyzer (src/analyze) on each, and additionally cross-checks the
// analyzer's *proven* minimum CIC register widths against both the
// filterdesign Bmax formula (K*log2(M) + Bin - 1) and the widths the
// builders actually synthesized.
//
// --sim-crosscheck additionally runs every linted module through both
// simulation engines (the interpreted reference and the compiled op tape)
// on a deterministic stimulus and demands bit-identical output streams
// and activity counters -- the dynamic counterpart of the static width
// proofs, and CI's engine-equivalence gate.
//
// --optimize runs the proof-carrying netlist optimizer (src/analyze/opt)
// on every linted module, re-checks each proof bundle with the independent
// checker, and (under --sim-crosscheck) differentially validates the
// optimized module against the original on both engines, activity
// counters included. --proof-dump writes every proof record as JSON.
// --opt-baseline gates the optimization report against a committed
// baseline: compiled-tape ops, register bits and adder counts of the
// optimized modules must not regress. --write-opt-baseline refreshes it.
//
// Exit codes:
//   0  no unsuppressed error-severity findings, cross-check consistent,
//      no baseline regression
//   1  error findings, cross-check mismatch, engine divergence, a
//      previously-clean module (per --baseline) gained an error, a proof
//      failed to check, or the optimization report regressed
//   2  usage / IO error
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analyze/lint.h"
#include "src/analyze/opt/equiv.h"
#include "src/analyze/opt/opt.h"
#include "src/analyze/opt/proof.h"
#include "src/analyze/report.h"
#include "src/decimator/chain.h"
#include "src/rtl/builders.h"
#include "src/rtl/compiled_sim.h"
#include "src/rtl/sim.h"
#include "src/verify/json.h"

namespace {

using dsadc::analyze::lint_module;
using dsadc::analyze::LintOptions;
using dsadc::analyze::ModuleReport;
using dsadc::analyze::proven_min_register_width;
using dsadc::verify::Json;

struct CicCheck {
  std::string module;
  int proven = 0;       ///< analyzer: max required width over state nodes
  int formula = 0;      ///< design::CicSpec::register_width()
  int synthesized = 0;  ///< widest state node the builder emitted
  bool ok = false;
};

int max_state_width(const dsadc::rtl::Module& m) {
  int w = 0;
  for (const auto& node : m.nodes()) {
    if (node.kind == dsadc::rtl::OpKind::kReg ||
        node.kind == dsadc::rtl::OpKind::kDecimate) {
      w = std::max(w, node.width);
    }
  }
  return w;
}

struct SimCheck {
  std::string module;
  bool ok = false;
  std::string detail;  ///< first divergence, empty when ok
};

/// xorshift64 stimulus masked to the input width: deterministic, full
/// bit coverage, independent of library RNG implementations.
std::vector<std::int64_t> make_stimulus(int width, std::size_t samples) {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::vector<std::int64_t> stim(samples);
  for (auto& v : stim) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    const int shift = 64 - width;
    v = static_cast<std::int64_t>(s << shift) >> shift;
  }
  return stim;
}

/// Compare the tape engine's run against the interpreter reference;
/// empty string when bit-identical (outputs, tick counts, activity
/// counters).
std::string diff_runs(const dsadc::rtl::SimResult& ref,
                      const dsadc::rtl::SimResult& got) {
  std::ostringstream os;
  if (got.outputs != ref.outputs) {
    os << "output streams diverge";
  } else if (got.activity.base_ticks != ref.activity.base_ticks) {
    os << "base_ticks " << got.activity.base_ticks << " vs "
       << ref.activity.base_ticks;
  } else if (got.activity.updates != ref.activity.updates) {
    os << "per-node update counts diverge";
  } else if (got.activity.bit_toggles != ref.activity.bit_toggles) {
    os << "per-node toggle counts diverge";
  }
  return os.str();
}

/// Run `m` through both simulation engines on a deterministic full-range
/// stimulus; outputs, tick counts, and activity counters of the tape run
/// must all be bit-identical to the interpreter's.
SimCheck sim_crosscheck_module(const dsadc::rtl::Module& m,
                               dsadc::rtl::NodeId in,
                               const std::string& name) {
  SimCheck check;
  check.module = name;

  const auto& node = m.nodes()[static_cast<std::size_t>(in)];
  const std::vector<std::int64_t> stim = make_stimulus(node.width, 512);

  dsadc::rtl::Simulator interp(m);
  const auto ref = interp.run({{in, stim}});

  const dsadc::rtl::CompiledSimulator tape(m);
  check.detail = diff_runs(ref, tape.run({{in, stim}}, {.activity = true}));
  check.ok = check.detail.empty();
  return check;
}

/// Per-module optimization report: proof-checker verdict, differential
/// equivalence verdict, and the hardware-cost metrics the opt baseline
/// gates on.
struct OptCheck {
  std::string module;
  bool proofs_ok = false;
  bool equiv_ok = true;   ///< trivially true unless equiv_ran
  bool equiv_ran = false;
  std::size_t proofs = 0;
  std::size_t nodes = 0;
  std::size_t nodes_opt = 0;
  std::size_t tape_ops = 0;      ///< compiled-sim scheduled ops / period
  std::size_t tape_ops_opt = 0;
  std::size_t register_bits = 0;
  std::size_t register_bits_opt = 0;
  std::size_t adders = 0;
  std::size_t adders_opt = 0;
  std::string detail;  ///< first failure, empty when clean
  std::vector<dsadc::analyze::opt::RewriteProof> proof_records;
};

OptCheck run_opt_check(const dsadc::rtl::Module& m, dsadc::rtl::NodeId in,
                       const std::string& name, bool with_equiv) {
  OptCheck check;
  check.module = name;

  auto opt = dsadc::analyze::opt::optimize(m);
  const auto verdict = dsadc::analyze::opt::check_proofs(m, opt.proofs);
  check.proofs_ok = verdict.ok;
  if (!verdict.ok && !verdict.errors.empty()) check.detail = verdict.errors[0];
  check.proofs = opt.proofs.size();
  check.nodes = m.size();
  check.nodes_opt = opt.module.size();
  check.tape_ops =
      dsadc::rtl::CompiledSimulator(m).scheduled_ops_per_period();
  check.tape_ops_opt =
      dsadc::rtl::CompiledSimulator(opt.module).scheduled_ops_per_period();
  check.register_bits = m.register_bits();
  check.register_bits_opt = opt.module.register_bits();
  check.adders = m.adder_count();
  check.adders_opt = opt.module.adder_count();

  if (with_equiv) {
    check.equiv_ran = true;
    const auto& node = m.nodes()[static_cast<std::size_t>(in)];
    const std::vector<std::int64_t> stim = make_stimulus(node.width, 512);
    const auto equiv = dsadc::analyze::opt::check_optimized_equivalence(
        m, opt, {{in, stim}});
    check.equiv_ok = equiv.ok;
    if (!equiv.ok && check.detail.empty() && !equiv.errors.empty()) {
      check.detail = equiv.errors[0];
    }
  }
  check.proof_records = std::move(opt.proofs);
  return check;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string baseline_path;
  std::string only_module;
  std::string proof_dump_path;
  std::string opt_baseline_path;
  std::string write_opt_baseline_path;
  bool quiet = false;
  bool sim_crosscheck = false;
  bool optimize_modules = false;
  LintOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lint_rtl: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = next();
    } else if (arg == "--baseline") {
      baseline_path = next();
    } else if (arg == "--suppress") {
      options.suppress.emplace_back(next());
    } else if (arg == "--module") {
      only_module = next();
    } else if (arg == "--quiet" || arg == "-q") {
      quiet = true;
    } else if (arg == "--sim-crosscheck") {
      sim_crosscheck = true;
    } else if (arg == "--optimize") {
      optimize_modules = true;
    } else if (arg == "--proof-dump") {
      proof_dump_path = next();
      optimize_modules = true;
    } else if (arg == "--opt-baseline") {
      opt_baseline_path = next();
      optimize_modules = true;
    } else if (arg == "--write-opt-baseline") {
      write_opt_baseline_path = next();
      optimize_modules = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: lint_rtl [--json FILE] [--baseline FILE]\n"
          "                [--suppress PATTERN]... [--module NAME] "
          "[--quiet] [--sim-crosscheck]\n"
          "                [--optimize] [--proof-dump FILE]\n"
          "                [--opt-baseline FILE] [--write-opt-baseline "
          "FILE]\n");
      return 0;
    } else {
      std::fprintf(stderr, "lint_rtl: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  try {
    const auto config = dsadc::decim::paper_chain_config();
    const auto chain = dsadc::rtl::build_chain(config);

    std::vector<const dsadc::rtl::Module*> modules;
    std::vector<dsadc::rtl::NodeId> input_of;
    std::vector<ModuleReport> reports;
    // Chain stage index behind each report (the full chain gets
    // chain.stages.size()); keeps the CIC cross-check aligned when
    // --module filters the list.
    std::vector<std::size_t> stage_of;
    for (std::size_t s = 0; s < chain.stages.size(); ++s) {
      // Stage names are unique ("sinc4_1", "sinc4_2", ...); module names
      // are not (both Sinc4 stages elaborate the same module).
      const std::string& name = s < chain.stage_names.size()
                                    ? chain.stage_names[s]
                                    : chain.stages[s].module.name();
      if (!only_module.empty() && name != only_module) continue;
      LintOptions stage_options = options;
      stage_options.module_name = name;
      modules.push_back(&chain.stages[s].module);
      input_of.push_back(chain.stages[s].in);
      reports.push_back(lint_module(chain.stages[s].module, stage_options));
      stage_of.push_back(s);
    }
    if (only_module.empty() || chain.full.name() == only_module) {
      modules.push_back(&chain.full);
      input_of.push_back(chain.in);
      reports.push_back(lint_module(chain.full, options));
      stage_of.push_back(chain.stages.size());
    }
    if (reports.empty()) {
      std::fprintf(stderr, "lint_rtl: no module named '%s'\n",
                   only_module.c_str());
      return 2;
    }

    // Cross-check: for each Sinc stage the analyzer's proven minimum safe
    // register width must equal both the Hogenauer formula and what the
    // builder synthesized. A three-way match means the width proofs, the
    // design equations, and the netlist agree.
    bool cross_check_ok = true;
    std::vector<CicCheck> checks;
    for (std::size_t r = 0; r < reports.size(); ++r) {
      const std::size_t s = stage_of[r];
      if (s >= config.cic_stages.size()) continue;  // not a CIC stage
      const auto& spec = config.cic_stages[s];
      CicCheck check;
      check.module = reports[r].module;
      check.proven = proven_min_register_width(*modules[r], reports[r].range);
      check.formula = spec.register_width();
      check.synthesized = max_state_width(*modules[r]);
      check.ok = check.proven == check.formula &&
                 check.formula == check.synthesized;
      cross_check_ok = cross_check_ok && check.ok;
      checks.push_back(check);
    }

    // Engine-equivalence gate: interpreted vs compiled simulator on every
    // linted module.
    bool sim_check_ok = true;
    std::vector<SimCheck> sim_checks;
    if (sim_crosscheck) {
      for (std::size_t r = 0; r < reports.size(); ++r) {
        sim_checks.push_back(sim_crosscheck_module(*modules[r], input_of[r],
                                                   reports[r].module));
        sim_check_ok = sim_check_ok && sim_checks.back().ok;
      }
    }

    // Optimization gate: every rewrite bundle must pass the independent
    // proof checker; with --sim-crosscheck the optimized module must also
    // be differentially equivalent to the original on both engines.
    bool opt_check_ok = true;
    std::vector<OptCheck> opt_checks;
    if (optimize_modules) {
      for (std::size_t r = 0; r < reports.size(); ++r) {
        opt_checks.push_back(run_opt_check(*modules[r], input_of[r],
                                           reports[r].module, sim_crosscheck));
        const OptCheck& c = opt_checks.back();
        opt_check_ok = opt_check_ok && c.proofs_ok && c.equiv_ok;
      }
    }

    Json doc = dsadc::analyze::json_report(reports);
    Json jchecks = Json::array();
    for (const CicCheck& c : checks) {
      Json jc = Json::object();
      jc["module"] = Json{c.module};
      jc["proven_width"] = Json{c.proven};
      jc["formula_width"] = Json{c.formula};
      jc["synthesized_width"] = Json{c.synthesized};
      jc["ok"] = Json{c.ok};
      jchecks.push_back(std::move(jc));
    }
    doc["cic_width_check"] = std::move(jchecks);
    if (sim_crosscheck) {
      Json jsims = Json::array();
      for (const SimCheck& c : sim_checks) {
        Json jc = Json::object();
        jc["module"] = Json{c.module};
        jc["ok"] = Json{c.ok};
        if (!c.ok) jc["detail"] = Json{c.detail};
        jsims.push_back(std::move(jc));
      }
      doc["sim_crosscheck"] = std::move(jsims);
    }
    if (optimize_modules) {
      Json jopts = Json::array();
      for (const OptCheck& c : opt_checks) {
        Json jc = Json::object();
        jc["module"] = Json{c.module};
        jc["proofs_ok"] = Json{c.proofs_ok};
        if (c.equiv_ran) jc["equiv_ok"] = Json{c.equiv_ok};
        jc["proofs"] = Json{static_cast<std::int64_t>(c.proofs)};
        jc["nodes"] = Json{static_cast<std::int64_t>(c.nodes)};
        jc["nodes_opt"] = Json{static_cast<std::int64_t>(c.nodes_opt)};
        jc["tape_ops"] = Json{static_cast<std::int64_t>(c.tape_ops)};
        jc["tape_ops_opt"] = Json{static_cast<std::int64_t>(c.tape_ops_opt)};
        jc["register_bits"] = Json{static_cast<std::int64_t>(c.register_bits)};
        jc["register_bits_opt"] =
            Json{static_cast<std::int64_t>(c.register_bits_opt)};
        jc["adders"] = Json{static_cast<std::int64_t>(c.adders)};
        jc["adders_opt"] = Json{static_cast<std::int64_t>(c.adders_opt)};
        if (!c.detail.empty()) jc["detail"] = Json{c.detail};
        jopts.push_back(std::move(jc));
      }
      doc["optimize"] = std::move(jopts);
    }

    // Opt-report baseline: the hardware-cost metrics of the optimized
    // modules must not regress against the committed numbers.
    std::vector<std::string> opt_regressions;
    if (!opt_baseline_path.empty()) {
      std::ifstream in(opt_baseline_path);
      if (!in) {
        std::fprintf(stderr, "lint_rtl: cannot read opt baseline %s\n",
                     opt_baseline_path.c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      const Json base = dsadc::verify::json_parse(buf.str());
      const Json& base_modules = base.at("modules");
      for (std::size_t i = 0; i < base_modules.size(); ++i) {
        const Json& bm = base_modules.at(i);
        const std::string name = bm.at("module").as_string();
        for (const OptCheck& c : opt_checks) {
          if (c.module != name) continue;
          const auto gate = [&](const char* key, std::size_t current) {
            if (static_cast<std::int64_t>(current) > bm.at(key).as_int()) {
              opt_regressions.push_back(name + ": " + key + " " +
                                        std::to_string(current) + " > " +
                                        std::to_string(bm.at(key).as_int()));
            }
          };
          gate("tape_ops_opt", c.tape_ops_opt);
          gate("register_bits_opt", c.register_bits_opt);
          gate("adders_opt", c.adders_opt);
          gate("nodes_opt", c.nodes_opt);
        }
      }
    }
    if (!write_opt_baseline_path.empty()) {
      Json base = Json::object();
      Json jmods = Json::array();
      for (const OptCheck& c : opt_checks) {
        Json jm = Json::object();
        jm["module"] = Json{c.module};
        jm["tape_ops_opt"] = Json{static_cast<std::int64_t>(c.tape_ops_opt)};
        jm["register_bits_opt"] =
            Json{static_cast<std::int64_t>(c.register_bits_opt)};
        jm["adders_opt"] = Json{static_cast<std::int64_t>(c.adders_opt)};
        jm["nodes_opt"] = Json{static_cast<std::int64_t>(c.nodes_opt)};
        jmods.push_back(std::move(jm));
      }
      base["modules"] = std::move(jmods);
      std::ofstream out(write_opt_baseline_path);
      if (!out) {
        std::fprintf(stderr, "lint_rtl: cannot write %s\n",
                     write_opt_baseline_path.c_str());
        return 2;
      }
      out << base.dump(2) << "\n";
    }
    if (!proof_dump_path.empty()) {
      std::ofstream out(proof_dump_path);
      if (!out) {
        std::fprintf(stderr, "lint_rtl: cannot write %s\n",
                     proof_dump_path.c_str());
        return 2;
      }
      out << "{\n  \"modules\": [";
      for (std::size_t i = 0; i < opt_checks.size(); ++i) {
        if (i != 0) out << ",";
        out << "\n  {\"module\": \"" << opt_checks[i].module
            << "\",\n   \"proofs\": "
            << dsadc::analyze::opt::proofs_to_json(
                   opt_checks[i].proof_records)
            << "  }";
      }
      out << "\n  ]\n}\n";
    }

    // Baseline gate: any module that was error-free in the baseline report
    // must stay error-free.
    std::vector<std::string> regressions;
    if (!baseline_path.empty()) {
      std::ifstream in(baseline_path);
      if (!in) {
        std::fprintf(stderr, "lint_rtl: cannot read baseline %s\n",
                     baseline_path.c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      const Json base = dsadc::verify::json_parse(buf.str());
      const Json& base_modules = base.at("modules");
      for (std::size_t i = 0; i < base_modules.size(); ++i) {
        const Json& bm = base_modules.at(i);
        if (bm.at("errors").as_int() != 0) continue;  // was already dirty
        const std::string name = bm.at("module").as_string();
        for (const ModuleReport& r : reports) {
          if (r.module == name && r.errors > 0) regressions.push_back(name);
        }
      }
    }

    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        std::fprintf(stderr, "lint_rtl: cannot write %s\n", json_path.c_str());
        return 2;
      }
      out << doc.dump(2) << "\n";
    }

    if (!quiet) {
      std::fputs(dsadc::analyze::text_report(reports).c_str(), stdout);
      for (const CicCheck& c : checks) {
        std::printf("cic-width %s: proven %d, formula %d, synthesized %d  %s\n",
                    c.module.c_str(), c.proven, c.formula, c.synthesized,
                    c.ok ? "OK" : "MISMATCH");
      }
      for (const SimCheck& c : sim_checks) {
        std::printf("sim-crosscheck %s (interp/tape): %s%s%s\n",
                    c.module.c_str(), c.ok ? "OK" : "FAILED",
                    c.ok ? "" : " -- ", c.detail.c_str());
      }
      for (const OptCheck& c : opt_checks) {
        std::printf(
            "optimize %s: %zu proofs %s%s, nodes %zu -> %zu, tape ops "
            "%zu -> %zu, reg bits %zu -> %zu, adders %zu -> %zu%s%s\n",
            c.module.c_str(), c.proofs,
            c.proofs_ok ? "CHECKED" : "REJECTED",
            !c.equiv_ran ? "" : (c.equiv_ok ? ", equiv OK" : ", equiv FAILED"),
            c.nodes, c.nodes_opt, c.tape_ops, c.tape_ops_opt, c.register_bits,
            c.register_bits_opt, c.adders, c.adders_opt,
            c.detail.empty() ? "" : " -- ", c.detail.c_str());
      }
      for (const std::string& msg : opt_regressions) {
        std::printf("opt-baseline regression: %s\n", msg.c_str());
      }
      for (const std::string& name : regressions) {
        std::printf("baseline regression: module '%s' was clean, now has "
                    "errors\n",
                    name.c_str());
      }
    }

    const bool failed = dsadc::analyze::has_errors(reports) ||
                        !cross_check_ok || !sim_check_ok || !opt_check_ok ||
                        !regressions.empty() || !opt_regressions.empty();
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lint_rtl: %s\n", e.what());
    return 2;
  }
}
