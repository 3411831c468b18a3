// The two serving workloads (wire to wire through a live in-process
// server) and the seed-drawn plans they replay.
//
//   serve_lockstep  256 lockstep sessions of the paper preset, channel ids
//                   laid out so every shard's cohort fills one 32-lane
//                   ChainBank; equal 2048-code blocks.
//   serve_churn     64 scalar sessions; block lengths 256..16384 and a
//                   seed schedule of CONFIG (full CFG1 blobs from a pool of
//                   three), DRAIN, and CLOSE + re-OPEN.
//
// Each run is a series of epochs. An epoch connects fresh clients, OPENs
// every session, streams the plan, waits for every reply, checks every
// session's output bit-exactly against a model DecimationChain that
// replays the same ops, then CLOSEs and disconnects. Every epoch replays
// the same ops (open-loop churn epochs re-draw only each session's start
// phase), so the model runs once per process.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "src/decimator/chain.h"

namespace perfbench {

/// Closed loop: ops a session may have in flight.
inline constexpr std::size_t kWindow = 2;

enum class OpKind : std::uint8_t { kOpen, kConfig, kData, kDrain, kClose };

struct Op {
  OpKind kind = OpKind::kData;
  std::uint32_t cfg = 0;      ///< kOpen/kConfig: index into Plan::configs
  std::uint32_t block = 0;    ///< kData: index into Plan::blocks
  double due_s = 0.0;         ///< open loop: due time from session start
};

struct Plan {
  bool lockstep = false;
  std::size_t sessions = 0;
  std::size_t conns = 0;
  std::size_t shards = 0;
  /// Open loop offered rate, codes per second (fixed per workload).
  double open_rate = 0.0;
  /// Configs sessions OPEN/CONFIG with. Lockstep sessions OPEN preset 0
  /// (configs[0] is that preset); churn sessions send full CFG1 blobs.
  std::vector<std::shared_ptr<const dsadc::decim::ChainConfig>> configs;
  std::vector<std::vector<std::int32_t>> blocks;
  /// Ops per session in session order (the first op is the OPEN).
  std::vector<std::vector<Op>> ops;
  std::uint64_t seed = 0;
  /// Open loop: each epoch shifts every session by a random phase in
  /// [0, max_phase_s) (0 for lockstep, whose ticks are due together).
  double max_phase_s = 0.0;
  /// Model output per session (concatenated) and, per op, the cumulative
  /// sample count once that op's output is in.
  std::vector<std::vector<std::int64_t>> expected;
  std::vector<std::vector<std::size_t>> seg_end;
  std::uint64_t data_codes = 0;  ///< DATA codes per epoch
  std::uint64_t data_ops = 0;
};

enum class ServeKind { kLockstep, kChurn };

/// Draw the plan (without the model outputs) for a workload and seed.
/// `scale` < 1 shrinks it (self-test and layer probes); without codes the
/// plan only opens its sessions (set-up probes).
Plan make_plan(ServeKind kind, std::uint64_t seed, double scale,
               bool with_codes = true);
/// Replay the plan through model chains: fills expected / seg_end.
void run_model(Plan& plan);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool inject_fault = false;
  double scale = 1.0;
};

/// One serving workload run; fills `report` (contract metrics when
/// untraced, the serving share of the ledger when traced). Returns the
/// workload's plan so the traced run can replay its layers on it.
Plan run_serve(ServeKind kind, const RunOptions& opts, Report& report);

/// Set-up only: server start + connects + every OPEN acked, in seconds.
double serve_setup_probe(ServeKind kind, const RunOptions& opts);

/// A short serving run of `plan` (model already run) for workloads that do
/// not serve: the serving ledger's denominator and the client-side figures.
struct ServeProbe {
  double cpu_ns_per_code = 0.0;
  double send_blocked_frac = 0.0;
  double late_p99_ms = 0.0;
  std::uint64_t attempted = 0, failed = 0;
};
ServeProbe serve_probe(const Plan& plan, double seconds);

}  // namespace perfbench
