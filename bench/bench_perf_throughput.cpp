// Runtime performance of the simulation substrate (google-benchmark):
// modulator, bit-true chain, design steps and the RTL simulator.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory_resource>
#include <string>

#include "src/analyze/opt/opt.h"
#include "src/core/flow.h"
#include "src/obs/bench_telemetry.h"
#include "src/decimator/chain.h"
#include "src/decimator/simd.h"
#include "src/dsp/freqz.h"
#include "src/filterdesign/saramaki.h"
#include "src/modulator/dsm.h"
#include "src/modulator/ntf.h"
#include "src/modulator/realize.h"
#include "src/rtl/builders.h"
#include "src/rtl/compiled_sim.h"
#include "src/rtl/sim.h"

namespace {

using namespace dsadc;

const mod::CiffCoeffs& paper_coeffs() {
  static const mod::CiffCoeffs c =
      mod::realize_ciff(mod::synthesize_ntf(5, 16.0, 3.0, true));
  return c;
}

const std::vector<std::int32_t>& paper_codes() {
  static const std::vector<std::int32_t> codes = [] {
    mod::CiffModulator m(paper_coeffs(), 4);
    const auto u = mod::coherent_sine(1 << 15, 5e6, 640e6, 0.81, nullptr);
    return m.run(u).codes;
  }();
  return codes;
}

void BM_ModulatorSim(benchmark::State& state) {
  const auto u = mod::coherent_sine(static_cast<std::size_t>(state.range(0)),
                                    5e6, 640e6, 0.81, nullptr);
  mod::CiffModulator m(paper_coeffs(), 4);
  for (auto _ : state) {
    m.reset();
    benchmark::DoNotOptimize(m.run(u));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ModulatorSim)->Arg(1 << 12)->Arg(1 << 15);

void BM_DecimationChain(benchmark::State& state) {
  decim::DecimationChain chain(decim::paper_chain_config());
  const auto& codes = paper_codes();
  for (auto _ : state) {
    chain.reset();
    benchmark::DoNotOptimize(chain.process(codes));
  }
  state.SetItemsProcessed(state.iterations() * codes.size());
}
BENCHMARK(BM_DecimationChain);

// Per-stage breakdown of BM_DecimationChain: a 1-lane ChainBank over the
// same codes, each stage timed through process_inplace's at_stage hook.
// main() writes decim_chain1.<layer>.ns_per_code (per chain input code);
// "load" is the int32 -> int64 widen DecimationChain::process also does,
// and "hbf" includes the CIC-gain renormalization, which has no boundary
// of its own. The layers add up to BM_DecimationChain less its output
// copy (1/16 of the codes).
std::map<std::string, double>& chain1_layer_ns_per_code() {
  static std::map<std::string, double> layers;
  return layers;
}

void BM_DecimationChainStages(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const auto cfg = decim::paper_chain_config();
  decim::ChainBank bank(cfg, 1);
  const auto& codes = paper_codes();
  std::vector<std::string> layers = {"load"};
  for (std::size_t i = 0; i < cfg.cic_stages.size(); ++i) {
    layers.push_back("cic" + std::to_string(i + 1));
  }
  layers.insert(layers.end(), {"hbf", "scaler", "eq"});
  std::vector<Clock::duration> spent(layers.size(), Clock::duration::zero());
  std::vector<std::int64_t> buf;
  for (auto _ : state) {
    bank.reset();
    auto t = Clock::now();
    buf.assign(codes.begin(), codes.end());
    auto now = Clock::now();
    spent[0] += now - t;
    t = now;
    bank.process_inplace(buf,
                         [&](std::size_t k, const std::vector<std::int64_t>&) {
                           now = Clock::now();
                           spent[k + 1] += now - t;
                           t = now;
                         });
    benchmark::DoNotOptimize(buf.data());
  }
  // The last (measured) run overwrites the estimation runs' figures.
  const double total_codes =
      static_cast<double>(state.iterations()) *
      static_cast<double>(codes.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    chain1_layer_ns_per_code()[layers[i]] =
        std::chrono::duration<double, std::nano>(spent[i]).count() /
        total_codes;
  }
  state.SetItemsProcessed(state.iterations() * codes.size());
}
BENCHMARK(BM_DecimationChainStages);

// Sample-at-a-time reference for the chain: the same stages driven through
// push() one sample at a time. The ratio of BM_DecimationChain to this is
// decim_chain_batched_speedup -- the win from the bank kernels (run at one
// lane), measured in the same run on the same machine. push() is code no
// kernel change touches, so the ratio moves only with the bank.
void BM_DecimationChainPush(benchmark::State& state) {
  const auto cfg = decim::paper_chain_config();
  decim::CicCascade cic(cfg.cic_stages);
  decim::SaramakiHbfDecimator hbf(cfg.hbf, cfg.hbf_in_format,
                                  cfg.hbf_out_format, cfg.hbf_coeff_frac_bits);
  decim::ScalingStage scaler(cfg.scale, cfg.hbf_out_format,
                             cfg.scaler_out_format, /*frac_bits=*/14,
                             /*max_digits=*/8);
  decim::FirDecimator eq(
      decim::FixedTaps::from_real(cfg.equalizer_taps, cfg.equalizer_frac_bits),
      /*decimation=*/1, cfg.scaler_out_format, cfg.output_format);
  const int gain_log2 = static_cast<int>(std::lround(
      std::log2(static_cast<double>(cic.total_dc_gain()))));
  static const fx::EventCounters& ec = fx::event_counters("chain_hbf_in");
  const auto& codes = paper_codes();
  for (auto _ : state) {
    cic.reset();
    hbf.reset();
    eq.reset();
    std::vector<std::int64_t> out;
    out.reserve(codes.size() / 16 + 1);
    for (const std::int32_t code : codes) {
      std::int64_t v = code;
      bool have = true;
      for (auto& stage : cic.stages()) {
        std::int64_t next = 0;
        if (!stage.push(v, next)) {
          have = false;
          break;
        }
        v = next;
      }
      if (!have) continue;
      v = fx::requantize(v, gain_log2, cfg.hbf_in_format,
                         fx::Rounding::kRoundNearest, fx::Overflow::kSaturate,
                         &ec);
      std::int64_t h = 0;
      if (!hbf.push(v, h)) continue;
      std::int64_t e = 0;
      if (eq.push(scaler.push(h), e)) out.push_back(e);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * codes.size());
}
BENCHMARK(BM_DecimationChainPush);

// --- Multi-channel: N DecimationChains on one thread --------------------
//
// What MultiChannelRuntime runs per tick at one worker: N 1-lane chains,
// each over its own 8192-code block.

const std::vector<std::vector<std::int32_t>>& channel_codes(
    std::size_t channels) {
  static std::map<std::size_t, std::vector<std::vector<std::int32_t>>> cache;
  auto& blocks = cache[channels];
  if (blocks.empty()) {
    const auto& codes = paper_codes();
    const std::vector<std::int32_t> block(codes.begin(),
                                          codes.begin() + (1 << 13));
    blocks.assign(channels, block);
  }
  return blocks;
}

void BM_MultiChannelSerial(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  const auto& blocks = channel_codes(channels);
  std::vector<decim::DecimationChain> chains;
  for (std::size_t c = 0; c < channels; ++c) {
    chains.emplace_back(decim::paper_chain_config());
  }
  for (auto _ : state) {
    for (std::size_t c = 0; c < channels; ++c) {
      chains[c].reset();
      benchmark::DoNotOptimize(chains[c].process(blocks[c]));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(channels * (1 << 13)));
}
BENCHMARK(BM_MultiChannelSerial)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_HbfDesign(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        design::design_saramaki_hbf(3, 6, 0.2125, 24, 0));
  }
}
BENCHMARK(BM_HbfDesign);

void BM_NtfSynthesis(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod::synthesize_ntf(5, 16.0, 3.0, true));
  }
}
BENCHMARK(BM_NtfSynthesis);

// |H| of the paper HBF over its 2049-point stopband grid: the batched
// sweep (dsp::fir_magnitudes, Horner chains in lanes) against one
// fir_response_at per point. The ratio is freqz_batched_speedup.
struct StopbandSweep {
  std::vector<double> taps = decim::paper_chain_config().hbf.taps;
  std::vector<double> freqs = std::vector<double>(2049);
  std::vector<double> mags = std::vector<double>(2049);
  StopbandSweep() {
    const double fp = 0.2125;
    for (std::size_t k = 0; k < freqs.size(); ++k) {
      freqs[k] = (0.5 - fp) + fp * static_cast<double>(k) / 2048.0;
    }
  }
};

void BM_FirMagnitudesBatched(benchmark::State& state) {
  StopbandSweep s;
  for (auto _ : state) {
    dsp::fir_magnitudes(s.taps, s.freqs, s.mags);
    benchmark::DoNotOptimize(s.mags.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.freqs.size()));
}
BENCHMARK(BM_FirMagnitudesBatched);

void BM_FirMagnitudesPointwise(benchmark::State& state) {
  StopbandSweep s;
  for (auto _ : state) {
    for (std::size_t k = 0; k < s.freqs.size(); ++k) {
      s.mags[k] = std::abs(dsp::fir_response_at(s.taps, s.freqs[k]));
    }
    benchmark::DoNotOptimize(s.mags.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(s.freqs.size()));
}
BENCHMARK(BM_FirMagnitudesPointwise);

// The design step alone (NTF, HBF search, equalizer, response checks).
void BM_DesignStep(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::DesignFlow::design(
        mod::paper_modulator_spec(), mod::paper_decimator_spec()));
  }
}
BENCHMARK(BM_DesignStep)->Unit(benchmark::kMillisecond);

// The whole flow on the paper spec: design, RTL generation, the synthesis
// estimate on 2^13 codes and the simulation-based verify on 2^15.
void BM_FullDesignFlow(benchmark::State& state) {
  const auto mspec = mod::paper_modulator_spec();
  const auto dspec = mod::paper_decimator_spec();
  for (auto _ : state) {
    const core::FlowResult r = core::DesignFlow::design(mspec, dspec);
    benchmark::DoNotOptimize(core::DesignFlow::generate_rtl(r));
    benchmark::DoNotOptimize(core::DesignFlow::synthesize(r, 5e6, 1 << 13));
    benchmark::DoNotOptimize(core::DesignFlow::verify(r, 5e6, 1 << 15));
  }
}
BENCHMARK(BM_FullDesignFlow)->Unit(benchmark::kMillisecond);

// The HBF search at the paper's passband edge and 90 dB: the pruned
// design_saramaki_hbf_auto against the exhaustive scan it replaces (every
// candidate designed and measured through the fixed-structure API). The
// search runs on one thread here (DSADC_VERIFY_THREADS=1, restored after):
// the ratio measures the pruning, not the digit-budget fan-out, which
// BM_DesignStep and BM_FullDesignFlow see.
void BM_HbfAutoSearch(benchmark::State& state) {
  const char* prev = std::getenv("DSADC_VERIFY_THREADS");
  const bool had_prev = prev != nullptr;
  const std::string saved = had_prev ? prev : "";
  setenv("DSADC_VERIFY_THREADS", "1", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(design::design_saramaki_hbf_auto(0.2125, 90.0));
  }
  state.SetItemsProcessed(state.iterations());
  if (had_prev) {
    setenv("DSADC_VERIFY_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("DSADC_VERIFY_THREADS");
  }
}
BENCHMARK(BM_HbfAutoSearch)->Unit(benchmark::kMillisecond);

void BM_HbfExhaustiveSearch(benchmark::State& state) {
  const std::pair<std::size_t, std::size_t> structures[] = {
      {2, 4}, {2, 5}, {3, 5}, {3, 6}, {3, 7}, {4, 7}, {4, 8}, {4, 10}, {5, 12}};
  const std::size_t digit_budgets[] = {3, 4, 5, 0};
  for (auto _ : state) {
    std::size_t best = ~std::size_t{0};
    for (const auto& [n1, n2] : structures) {
      for (std::size_t digits : digit_budgets) {
        const auto h =
            design::design_saramaki_hbf(n1, n2, 0.2125, 24, digits);
        if (h.stopband_atten_db >= 90.0) best = std::min(best, h.adder_count);
      }
    }
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HbfExhaustiveSearch)->Unit(benchmark::kMillisecond);

void BM_RtlSimCic(benchmark::State& state) {
  const auto stage = rtl::build_cic(design::CicSpec{4, 2, 4});
  std::vector<std::int64_t> in(paper_codes().begin(), paper_codes().end());
  for (auto _ : state) {
    rtl::Simulator sim(stage.module);
    benchmark::DoNotOptimize(sim.run({{stage.in, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimCic);

void BM_RtlSimCicCompiled(benchmark::State& state) {
  const auto stage = rtl::build_cic(design::CicSpec{4, 2, 4});
  std::vector<std::int64_t> in(paper_codes().begin(), paper_codes().end());
  rtl::CompiledSimulator sim(stage.module);  // elaborate once, like hardware
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run({{stage.in, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimCicCompiled);

// Interpreted vs compiled on the flattened paper chain, same stimulus in
// the same process: the ratio of their items/s is the engine speedup
// recorded as rtl_chain_compiled_speedup (machine-independent, gated in
// CI via bench_diff).
void BM_RtlSimChainInterp(benchmark::State& state) {
  const auto chain = rtl::build_chain(decim::paper_chain_config());
  std::vector<std::int64_t> in(paper_codes().begin(),
                               paper_codes().begin() + (1 << 13));
  for (auto _ : state) {
    rtl::Simulator sim(chain.full);
    benchmark::DoNotOptimize(sim.run({{chain.in, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimChainInterp);

void BM_RtlSimChainCompiled(benchmark::State& state) {
  const auto chain = rtl::build_chain(decim::paper_chain_config());
  std::vector<std::int64_t> in(paper_codes().begin(),
                               paper_codes().begin() + (1 << 13));
  rtl::CompiledSimulator sim(chain.full);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run({{chain.in, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimChainCompiled);

// Compiled engine with activity accounting on, for the power-estimation
// path (toggle counts identical to the interpreted engine's).
void BM_RtlSimChainCompiledActivity(benchmark::State& state) {
  const auto chain = rtl::build_chain(decim::paper_chain_config());
  std::vector<std::int64_t> in(paper_codes().begin(),
                               paper_codes().begin() + (1 << 13));
  rtl::CompiledSimulator sim(chain.full);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run({{chain.in, in}}, {.activity = true}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimChainCompiledActivity);

// Compiled engine on the proof-carrying optimizer's output: same stimulus
// and engine as BM_RtlSimChainCompiled, but the tape is built from the
// optimized netlist (dead nodes gone, constants folded, widths shrunk).
// The ratio to the unoptimized compiled run is rtl_opt_compiled_speedup.
void BM_RtlSimChainCompiledOpt(benchmark::State& state) {
  const auto chain = rtl::build_chain(decim::paper_chain_config());
  const analyze::opt::OptResult opt = analyze::opt::optimize(chain.full);
  std::vector<std::int64_t> in(paper_codes().begin(),
                               paper_codes().begin() + (1 << 13));
  rtl::CompiledSimulator sim(opt.module);
  const rtl::NodeId in_id =
      opt.node_map[static_cast<std::size_t>(chain.in)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run({{in_id, in}}));
  }
  state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_RtlSimChainCompiledOpt);

// --- Elaboration cost: default heap vs pmr arena -----------------------
//
// Building the full paper chain allocates thousands of pmr vector nodes
// plus name strings; the arena leg reuses one monotonic buffer per
// iteration. The recorded elaborate_arena_ratio (arena/heap items ratio)
// is informational -- allocator throughput is machine-dependent, so the
// name deliberately avoids the CI-gated "speedup" suffix.
void BM_ElaborateChain(benchmark::State& state) {
  const auto cfg = decim::paper_chain_config();
  for (auto _ : state) {
    const rtl::BuiltChain chain = rtl::build_chain(cfg);
    benchmark::DoNotOptimize(chain.full.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElaborateChain);

void BM_ElaborateChainArena(benchmark::State& state) {
  const auto cfg = decim::paper_chain_config();
  for (auto _ : state) {
    std::pmr::monotonic_buffer_resource arena(1 << 20);
    const rtl::BuiltChain chain = rtl::build_chain(cfg, {.arena = &arena});
    benchmark::DoNotOptimize(chain.full.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ElaborateChainArena);

/// Console reporter that additionally copies each run's timing and
/// items/s into the telemetry record (BENCH_perf_throughput.json).
class TelemetryReporter : public benchmark::ConsoleReporter {
 public:
  explicit TelemetryReporter(obs::BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      if (run.error_occurred) {
        ok_ = false;
        continue;
      }
      const std::string name = run.benchmark_name();
      const double per_iter_s =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : run.real_accumulated_time;
      report_->set(name + ".real_s_per_iter", per_iter_s);
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        report_->set(name + ".items_per_second", it->second.value);
        items_per_second_[name] = it->second.value;
      }
    }
  }

  bool ok() const { return ok_; }
  /// items/s by benchmark name, for cross-benchmark ratios.
  const std::map<std::string, double>& items_per_second() const {
    return items_per_second_;
  }

 private:
  obs::BenchReport* report_;
  std::map<std::string, double> items_per_second_;
  bool ok_ = true;
};

/// Record `num/den` as `key` and require it to clear `floor`; silently
/// skipped when either benchmark did not run (e.g. --benchmark_filter).
bool record_speedup(obs::BenchReport& report, const TelemetryReporter& r,
                    const char* key, const char* num, const char* den,
                    double floor) {
  const auto& ips = r.items_per_second();
  const auto n = ips.find(num);
  const auto d = ips.find(den);
  if (n == ips.end() || d == ips.end() || d->second <= 0.0) return true;
  const double speedup = n->second / d->second;
  report.set(key, speedup);
  if (speedup < floor) {
    std::fprintf(stderr, "bench_perf_throughput: %s = %.2fx below floor %.2fx\n",
                 key, speedup, floor);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReport report("perf_throughput");
  // Absolute figures depend on the machine (BM_FullDesignFlow scales with
  // the core count); bench_diff compares them only on the same shape.
  report.set_host(decim::simd::tier_name(decim::simd::best_tier()),
                  decim::simd::tier_name(decim::simd::active_tier()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return report.finish(false);
  }
  TelemetryReporter reporter(&report);
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  report.set("benchmarks_run", static_cast<double>(ran));
  for (const auto& [layer, ns] : chain1_layer_ns_per_code()) {
    report.set("decim_chain1." + layer + ".ns_per_code", ns);
  }

  // Machine-independent engine/kernel speedups, both legs measured in this
  // run. The floors are the acceptance bars; bench_diff gates the recorded
  // ratios against bench/baseline in CI.
  bool ok = ran > 0 && reporter.ok();
  ok &= record_speedup(report, reporter, "rtl_chain_compiled_speedup",
                       "BM_RtlSimChainCompiled", "BM_RtlSimChainInterp", 5.0);
  ok &= record_speedup(report, reporter, "rtl_cic_compiled_speedup",
                       "BM_RtlSimCicCompiled", "BM_RtlSimCic", 1.0);
  // Activity accounting keeps most of the tape engine's throughput: the
  // ratio is < 1 by construction (extra XOR/popcount per update), and the
  // floor guards against the accounting path regressing to the pre-SWAR
  // per-bit loop (which measured ~0.4x).
  ok &= record_speedup(report, reporter, "rtl_compiled_activity_speedup",
                       "BM_RtlSimChainCompiledActivity",
                       "BM_RtlSimChainCompiled", 0.45);
  ok &= record_speedup(report, reporter, "decim_chain_batched_speedup",
                       "BM_DecimationChain", "BM_DecimationChainPush", 1.5);
  // The optimized tape must never be slower than the unoptimized one; the
  // floor is lenient (0.98) because the win is modest -- the tape is
  // already const-hoisted -- and timer noise on small deltas is real.
  ok &= record_speedup(report, reporter, "rtl_opt_compiled_speedup",
                       "BM_RtlSimChainCompiledOpt", "BM_RtlSimChainCompiled",
                       0.98);
  ok &= record_speedup(report, reporter, "elaborate_arena_ratio",
                       "BM_ElaborateChainArena", "BM_ElaborateChain", 0.5);
  // Exact branch-and-bound in the HBF search over the exhaustive scan of
  // the same 36 candidates (measured ~6x); losing the pruning drops it to
  // ~1x.
  ok &= record_speedup(report, reporter, "hbf_search_pruning_speedup",
                       "BM_HbfAutoSearch", "BM_HbfExhaustiveSearch", 3.0);
  // Batched response sweep over one fir_response_at call per point
  // (measured ~3x); a sweep that falls back to serial chains drops to ~1x.
  ok &= record_speedup(report, reporter, "freqz_batched_speedup",
                       "BM_FirMagnitudesBatched", "BM_FirMagnitudesPointwise",
                       1.8);

  // Deterministic structural metrics: scheduled tape ops per period on the
  // paper chain, before and after the proof-carrying optimizer. Unlike the
  // timing ratios these are exact and machine-independent; the optimized
  // tape being strictly shorter is a hard acceptance bar, and the ratio is
  // gated in CI (bench_diff --gate speedup) like the engine speedups.
  {
    const auto chain = rtl::build_chain(decim::paper_chain_config());
    const analyze::opt::OptResult opt = analyze::opt::optimize(chain.full);
    const std::size_t unopt_ops =
        rtl::CompiledSimulator(chain.full).scheduled_ops_per_period();
    const std::size_t opt_ops =
        rtl::CompiledSimulator(opt.module).scheduled_ops_per_period();
    report.set("rtl_tape_ops", static_cast<double>(unopt_ops));
    report.set("rtl_opt_tape_ops", static_cast<double>(opt_ops));
    if (opt_ops < unopt_ops && opt_ops > 0) {
      report.set("rtl_opt_tape_speedup",
                 static_cast<double>(unopt_ops) / static_cast<double>(opt_ops));
    } else {
      std::fprintf(stderr,
                   "bench_perf_throughput: optimized tape (%zu ops) not "
                   "shorter than unoptimized (%zu ops)\n",
                   opt_ops, unopt_ops);
      ok = false;
    }
  }
  return report.finish(ok);
}
