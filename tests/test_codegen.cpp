// JIT codegen engine: selection, fallback, cache, and bit-exactness.
//
// The codegen backend (src/rtl/codegen.h) must be a pure accelerator:
// engine choice can change throughput only, never results or the public
// API's behavior. Coverage:
//
//   * engine selection and the fallback lattice (kOff, DSADC_CODEGEN=off
//     veto, missing/bogus compiler) -- every fallback must land on the
//     tape engine and stay bit-identical to the interpreter;
//   * the content-hash kernel cache: miss then hit, and eviction +
//     recompile when a cached .so is unloadable;
//   * a reg-of-const netlist (the t==0 const-commit-after-capture
//     ordering that distinguishes the engines' schedules);
//   * the flattened paper chain across all 9 stimulus classes, three
//     engines compared (interpreter reference, tape, codegen);
//   * a seeded random-netlist sweep, each netlist checked in source form
//     and in proof-carrying optimized form, parallelized over a worker
//     pool.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "src/analyze/opt/opt.h"
#include "src/decimator/chain.h"
#include "src/dsp/parallel.h"
#include "src/rtl/builders.h"
#include "src/rtl/codegen.h"
#include "src/rtl/compiled_sim.h"
#include "src/rtl/sim.h"
#include "src/verify/stimulus.h"
#include "tests/env_guard.h"

namespace {

using namespace dsadc;
using namespace dsadc::rtl;
using Codegen = CompiledSimOptions::Codegen;

namespace fs = std::filesystem;

using testutil::EnvGuard;

/// Per-process scratch cache directory, shared by all tests in this
/// binary so the paper chain is compiled at most once per run.
const std::string& cache_dir() {
  static const std::string dir = [] {
    std::string tmpl = fs::temp_directory_path() / "dsadc-cg-test-XXXXXX";
    char* p = ::mkdtemp(tmpl.data());
    return std::string(p ? p : "/tmp/dsadc-cg-test");
  }();
  return dir;
}

bool toolchain_available() {
  static const bool ok = [] {
    Module m("probe");
    m.output("y", m.input("in", 4));
    EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", cache_dir().c_str());
    CompiledSimulator sim(m, {.codegen = Codegen::kOn});
    return sim.engine() == SimEngine::kCodegen;
  }();
  return ok;
}

/// Interpreter reference vs one compiled engine: outputs, tick counts,
/// update counts, and toggle counts must all match.
void expect_matches_reference(const SimResult& ref, const Module& m,
                              NodeId in,
                              const std::vector<std::int64_t>& stim,
                              Codegen mode, SimEngine expected_engine,
                              const std::string& what) {
  CompiledSimulator sim(m, {.codegen = mode});
  ASSERT_EQ(sim.engine(), expected_engine)
      << what << ": " << sim.engine_detail();
  const SimResult got =
      sim.run({{in, stim}}, CompiledRunOptions{.activity = true});
  ASSERT_EQ(ref.outputs.size(), got.outputs.size()) << what;
  for (const auto& [id, stream] : ref.outputs) {
    const auto it = got.outputs.find(id);
    ASSERT_NE(it, got.outputs.end()) << what;
    EXPECT_EQ(stream, it->second) << what << ": output node " << id;
  }
  EXPECT_EQ(ref.activity.base_ticks, got.activity.base_ticks) << what;
  EXPECT_EQ(ref.activity.updates, got.activity.updates) << what;
  EXPECT_EQ(ref.activity.bit_toggles, got.activity.bit_toggles) << what;
}

/// Three-way engine agreement on one stimulus.
void expect_three_way(const Module& m, NodeId in,
                      const std::vector<std::int64_t>& stim,
                      const std::string& what) {
  Simulator interp(m);
  const SimResult ref = interp.run({{in, stim}});
  expect_matches_reference(ref, m, in, stim, Codegen::kOff, SimEngine::kTape,
                           what + " [tape]");
  if (toolchain_available()) {
    expect_matches_reference(ref, m, in, stim, Codegen::kOn,
                             SimEngine::kCodegen, what + " [codegen]");
  }
}

std::vector<std::int64_t> ramp(std::size_t n, std::int64_t lo,
                               std::int64_t hi) {
  std::vector<std::int64_t> v(n);
  std::int64_t x = lo;
  for (auto& s : v) {
    s = x;
    if (++x > hi) x = lo;
  }
  return v;
}

struct Built {
  Module m{"small"};
  NodeId in;
};

Built small_module() {
  Built b;
  b.in = b.m.input("in", 6);
  const NodeId d = b.m.decimate(b.in, 2);
  const NodeId s = b.m.add(d, d, 8);
  b.m.output("y", b.m.reg(s));
  return b;
}

TEST(CodegenSelection, OffOptionSelectsTape) {
  const Built b = small_module();
  CompiledSimulator sim(b.m, {.codegen = Codegen::kOff});
  EXPECT_EQ(sim.engine(), SimEngine::kTape);
}

TEST(CodegenSelection, AutoFollowsEnvDefaultOff) {
  EnvGuard env("DSADC_CODEGEN", nullptr);
  const Built b = small_module();
  CompiledSimulator sim(b.m);  // kAuto
  EXPECT_EQ(sim.engine(), SimEngine::kTape);
}

TEST(CodegenSelection, EnvOffVetoesExplicitOn) {
  EnvGuard env("DSADC_CODEGEN", "off");
  const Built b = small_module();
  CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
  EXPECT_EQ(sim.engine(), SimEngine::kTape);
  EXPECT_NE(sim.engine_detail().find("DSADC_CODEGEN"), std::string::npos)
      << sim.engine_detail();
}

TEST(CodegenSelection, MissingCompilerFallsBackBitIdentical) {
  EnvGuard cxx("DSADC_CODEGEN_CXX", "/nonexistent/definitely-not-a-cxx");
  const Built b = small_module();
  const auto stim = ramp(64, -32, 31);

  Simulator interp(b.m);
  const SimResult ref = interp.run({{b.in, stim}});
  // kOn with a bogus toolchain must degrade to the tape engine and stay
  // bit-identical -- the fallback is transparent to results.
  expect_matches_reference(ref, b.m, b.in, stim, Codegen::kOn,
                           SimEngine::kTape, "missing compiler fallback");
  CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
  EXPECT_NE(sim.engine_detail().find("DSADC_CODEGEN_CXX"),
            std::string::npos)
      << sim.engine_detail();
}

TEST(CodegenCache, SecondBuildHitsCache) {
  if (!toolchain_available()) GTEST_SKIP() << "no system compiler";
  std::string tmpl = fs::temp_directory_path() / "dsadc-cg-hit-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", tmpl.c_str());

  const Built b = small_module();
  CompiledSimulator first(b.m, {.codegen = Codegen::kOn});
  ASSERT_EQ(first.engine(), SimEngine::kCodegen) << first.engine_detail();
  EXPECT_FALSE(first.codegen_cache_hit());
  EXPECT_TRUE(fs::exists(first.codegen_so_path())) << first.codegen_so_path();

  CompiledSimulator second(b.m, {.codegen = Codegen::kOn});
  ASSERT_EQ(second.engine(), SimEngine::kCodegen) << second.engine_detail();
  EXPECT_TRUE(second.codegen_cache_hit());
  EXPECT_EQ(second.codegen_so_path(), first.codegen_so_path());
  fs::remove_all(tmpl);
}

TEST(CodegenCache, CorruptSoIsEvictedAndRecompiled) {
  if (!toolchain_available()) GTEST_SKIP() << "no system compiler";
  std::string tmpl = fs::temp_directory_path() / "dsadc-cg-evict-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", tmpl.c_str());

  const Built b = small_module();
  const std::string so = [&] {
    CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
    EXPECT_EQ(sim.engine(), SimEngine::kCodegen) << sim.engine_detail();
    return sim.codegen_so_path();
  }();
  ASSERT_FALSE(so.empty());
  {
    // Clobber the cached kernel with garbage that dlopen must reject.
    std::ofstream out(so, std::ios::binary | std::ios::trunc);
    out << "this is not a shared object";
  }

  CompiledSimulator sim(b.m, {.codegen = Codegen::kOn});
  ASSERT_EQ(sim.engine(), SimEngine::kCodegen)
      << "corrupt cache entry was not evicted: " << sim.engine_detail();
  EXPECT_FALSE(sim.codegen_cache_hit());
  const auto stim = ramp(64, -32, 31);
  Simulator interp(b.m);
  const SimResult ref = interp.run({{b.in, stim}});
  expect_matches_reference(ref, b.m, b.in, stim, Codegen::kOn,
                           SimEngine::kCodegen, "recompiled after eviction");
  fs::remove_all(tmpl);
}

TEST(CodegenExactness, RegOfConstAtTickZero) {
  // Registers fed by constants exercise the t==0 ordering: the initial
  // capture must read the pre-commit (zero) value, the const committing
  // only after that tick's captures. Both compiled engines must agree
  // with the interpreter on the full output stream including sample 0.
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", cache_dir().c_str());
  Module m("regconst");
  const NodeId in = m.input("in", 4);
  const NodeId c = m.constant(21, 8, 1);
  const NodeId r1 = m.reg(c);
  const NodeId r2 = m.reg(r1);
  const NodeId s = m.add(m.add(in, r1, 9), r2, 10);
  m.output("y", s);
  expect_three_way(m, in, ramp(40, -8, 7), "reg-of-const");
}

TEST(CodegenExactness, PaperChainAllStimulusClasses) {
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", cache_dir().c_str());
  const auto cfg = decim::paper_chain_config();
  const auto chain = build_chain(cfg);

  Simulator interp(chain.full);
  CompiledSimulator tape(chain.full, {.codegen = Codegen::kOff});
  const bool cg_ok = toolchain_available();
  CompiledSimulator cg(chain.full,
                       {.codegen = cg_ok ? Codegen::kOn : Codegen::kOff});
  if (cg_ok) {
    ASSERT_EQ(cg.engine(), SimEngine::kCodegen) << cg.engine_detail();
  }

  for (int cls = 0; cls < verify::kNumStimulusClasses; ++cls) {
    const auto c = static_cast<verify::StimulusClass>(cls);
    std::mt19937_64 rng(0xC0DE6E00 + static_cast<std::uint64_t>(cls));
    const auto stim =
        verify::make_stimulus(c, 384, cfg.input_format, rng);
    const std::string what =
        std::string("paper chain / ") + verify::stimulus_name(c);

    const SimResult ref = interp.run({{chain.in, stim}});
    for (CompiledSimulator* sim : {&tape, cg_ok ? &cg : &tape}) {
      const SimResult got =
          sim->run({{chain.in, stim}}, CompiledRunOptions{.activity = true});
      ASSERT_EQ(ref.outputs.size(), got.outputs.size()) << what;
      for (const auto& [id, stream] : ref.outputs) {
        EXPECT_EQ(stream, got.outputs.at(id)) << what << " node " << id;
      }
      EXPECT_EQ(ref.activity.base_ticks, got.activity.base_ticks) << what;
      EXPECT_EQ(ref.activity.updates, got.activity.updates) << what;
      EXPECT_EQ(ref.activity.bit_toggles, got.activity.bit_toggles) << what;
    }
  }
}

TEST(CodegenExactness, RandomNetlistSweepWithOptimizedForms) {
  EnvGuard dir("DSADC_CODEGEN_CACHE_DIR", cache_dir().c_str());
  // 110 seeds x (source + optimized) = 220 netlist checks. Each worker
  // draws an independent CIC spec and stimulus from its seed; the
  // optimized form goes through the proof-carrying rewriter, so the
  // sweep also covers netlists whose op mix differs from any builder's.
  constexpr std::size_t kSeeds = 110;
  std::mutex mu;
  std::vector<std::string> failures;
  dsp::parallel_for_index(kSeeds, [&](std::size_t i) {
    std::mt19937_64 rng(0x5EED0000 + i);
    std::uniform_int_distribution<int> order(1, 5);
    std::uniform_int_distribution<int> decim_f(2, 12);
    std::uniform_int_distribution<int> bits(2, 8);
    std::uniform_int_distribution<int> cls(0,
                                           verify::kNumStimulusClasses - 1);
    const design::CicSpec spec{order(rng), decim_f(rng), bits(rng)};
    const auto stage = build_cic(spec);
    const fx::Format fmt{spec.input_bits, 0};
    const auto stim = verify::make_stimulus(
        static_cast<verify::StimulusClass>(cls(rng)), 160, fmt, rng);
    const auto opt = analyze::opt::optimize(stage.module);
    for (const Module* m : {&stage.module, &opt.module}) {
      const std::string what = "seed " + std::to_string(i) +
                               (m == &opt.module ? " optimized" : " source");
      Simulator interp(*m);
      const SimResult ref = interp.run({{stage.in, stim}});
      const Codegen modes[] = {Codegen::kOff, Codegen::kOn};
      for (Codegen mode : modes) {
        if (mode == Codegen::kOn && !toolchain_available()) continue;
        CompiledSimulator sim(*m, {.codegen = mode});
        if (mode == Codegen::kOn &&
            sim.engine() != SimEngine::kCodegen) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back(what + ": codegen not selected: " +
                             sim.engine_detail());
          continue;
        }
        const SimResult got = sim.run({{stage.in, stim}},
                                      CompiledRunOptions{.activity = true});
        if (got.outputs != ref.outputs ||
            got.activity.updates != ref.activity.updates ||
            got.activity.bit_toggles != ref.activity.bit_toggles) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back(what + ": engines diverge");
        }
      }
    }
  });
  for (const auto& f : failures) ADD_FAILURE() << f;
}

}  // namespace
