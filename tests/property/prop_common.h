// Shared driver for the property-based differential tests.
//
// Each stage-class test runs a batch of randomized (config, stimulus)
// cases through the three-way harness. On the first failure the stimulus
// is shrunk to a minimal reproducer, persisted as a repro file (replayable
// with tools/repro_runner), and the GTest failure message carries the
// seed, the failing leg, and the repro path.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "src/verify/diff.h"
#include "src/verify/harness.h"
#include "src/dsp/parallel.h"
#include "src/verify/repro.h"
#include "src/verify/shrink.h"

namespace dsadc::verify::proptest {

/// Cases per stage class. Overridable with DSADC_PROP_CASES for quick
/// local iteration; the default meets the >=200 acceptance floor.
inline int case_count() {
  if (const char* env = std::getenv("DSADC_PROP_CASES")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;
}

/// Overall decimation of the stage a case drives; used as the shrinker's
/// length granularity so truncation preserves polyphase alignment.
inline int case_decimation(const StageCase& c) {
  switch (c.kind) {
    case StageKind::kCic:
    case StageKind::kPolyphaseCic:
    case StageKind::kSharpenedCic:
      return c.cic.decimation;
    case StageKind::kHbf:
      return 2;
    case StageKind::kScaler:
    case StageKind::kFir:
      return 1;
    case StageKind::kChain: {
      int m = 2;  // trailing halfband
      for (const auto& s : c.chain.cic_stages) m *= s.decimation;
      return m;
    }
  }
  return 1;
}

/// Shrink the failing case's stimulus, emit a repro file, and FAIL with a
/// replayable message.
inline void report_failure(const StageCase& c, const DiffOutcome& out) {
  auto fails = [&c](const std::vector<std::int64_t>& stim) {
    StageCase probe = c;
    probe.stimulus = stim;
    probe.length = stim.size();
    return !run_case(probe).ok;
  };
  ShrinkOptions opt;
  opt.length_multiple = case_decimation(c);
  StageCase shrunk = c;
  shrunk.stimulus = shrink_stimulus(c.stimulus, fails, opt);
  shrunk.length = shrunk.stimulus.size();
  std::string repro_path = "<write failed>";
  try {
    repro_path = emit_repro(shrunk);
  } catch (const std::exception& e) {
    repro_path = std::string("<write failed: ") + e.what() + ">";
  }
  FAIL() << stage_kind_name(c.kind) << " case failed: " << describe_case(c)
         << "\n  seed=" << c.seed << "  (set DSADC_FUZZ_SEED-style replay via"
         << " random_case(" << stage_kind_name(c.kind) << ", " << c.seed
         << "))"
         << "\n  leg=" << out.leg << "\n  " << out.detail << "\n  shrunk to "
         << shrunk.stimulus.size() << " samples; repro: " << repro_path
         << "\n  replay: build/tools/repro_runner " << repro_path;
}

/// Run `case_count()` randomized cases of one stage class; every case must
/// pass both legs (bit-exact RTL-vs-fixed, bounded ref-vs-fixed).
///
/// Cases fan out over verify_thread_count() workers (DSADC_VERIFY_THREADS
/// to override). Each case's stimulus is derived solely from seed_base + i,
/// so results are identical for any worker count; the lowest failing index
/// is reported, and worst_margin is an order-independent max, so the
/// output matches the old serial loop exactly.
inline void run_stage_class(StageKind kind, std::uint64_t seed_base) {
  const int n = case_count();
  std::vector<DiffOutcome> outcomes(static_cast<std::size_t>(n));
  dsp::parallel_for_index(static_cast<std::size_t>(n), [&](std::size_t i) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    outcomes[i] = run_case(random_case(kind, seed));
  });

  double worst_margin = 0.0;  // max over cases of max_ref_error / bound
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const DiffOutcome& out = outcomes[i];
    if (out.error_bound > 0.0) {
      worst_margin = std::max(worst_margin, out.max_ref_error / out.error_bound);
    }
    if (!out.ok) {
      // Re-derive the failing case from its index (shrinking reruns the
      // harness serially, so it stays off the worker pool).
      const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
      report_failure(random_case(kind, seed), out);
      return;  // report_failure already FAILed; stop at first failure
    }
  }
  std::cout << "[          ] " << stage_kind_name(kind) << ": " << n
            << " cases, worst error/bound ratio " << worst_margin << "\n";
}

}  // namespace dsadc::verify::proptest
