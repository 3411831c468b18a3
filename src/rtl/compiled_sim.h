// Compiled multi-rate simulator for the hardware IR.
//
// The interpreted Simulator (sim.h) walks every node at every base tick
// and gates slow clock domains with a per-node modulo test -- faithful,
// but it pays for the paper's multi-rate structure instead of exploiting
// it. This engine performs an elaboration pass once per netlist:
//
//   * the clock-domain period P = lcm over nodes of clock_div is computed
//     (the same fold src/analyze/range.cpp uses for transfer analysis)
//     and one flat schedule of active tape entries is precomputed per
//     phase, so a base tick touches only the nodes whose domain fires on
//     that phase;
//   * the Node graph is flattened into a struct-of-arrays "op tape":
//     operand NodeIds are pre-resolved to dense value-array slots (with a
//     pinned zero slot standing in for kInvalidNode), two's-complement
//     wrap widths are pre-converted to shift counts, constants are
//     pre-evaluated, and input streams are pre-bound to cursors instead
//     of per-tick map lookups;
//   * constants are hoisted off the tape entirely: a kConst node commits
//     the same value on every active tick, so both run modes commit each
//     constant once on the first tick (after that tick's register
//     captures, exactly where the interpreter's first commit lands) and
//     walk constant-free per-phase tapes from then on;
//   * switching-activity accounting (per-node Hamming toggles, the
//     PrimeTime-PX stimulus substitute) is an opt-in run mode. Update
//     counts need no tape walk at all -- a node in domain d updates
//     exactly ceil(ticks / d) times -- so they are filled analytically,
//     and the activity tape only adds one popcount accumulate per op over
//     the pure-dataflow path.
//
// Every run is bit-identical to Simulator::run on every netlist --
// outputs always, and the Activity counters whenever activity mode is on.
// The interpreted simulator stays as the reference model;
// tests/test_compiled_sim.cpp and the lint_rtl --sim-crosscheck gate hold
// the two engines together.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/rtl/ir.h"
#include "src/rtl/sim.h"

namespace dsadc::rtl {

/// Run-time knobs for a compiled run.
struct CompiledRunOptions {
  /// Record per-node toggle/update counts (exact match with the
  /// interpreted simulator). Off by default: the pure-dataflow path skips
  /// all accounting and leaves SimResult::activity counters zeroed.
  bool activity = false;
};

class CompiledSimulator {
 public:
  /// Elaborates the module into phase schedules and the op tape. The
  /// module must stay alive no longer than needed for construction; the
  /// compiled form is self-contained afterwards.
  explicit CompiledSimulator(const Module& module);

  /// Drive the module exactly like Simulator::run: as many base ticks as
  /// the input streams allow, one sample consumed per domain tick of each
  /// bound kInput node. Thread-safe: run() keeps all mutable state on the
  /// call stack, so one compiled netlist can serve many threads.
  SimResult run(const std::map<NodeId, std::span<const std::int64_t>>& inputs,
                const CompiledRunOptions& options = {}) const;

  /// Clock-domain period: lcm over nodes of clock_div.
  int period() const { return period_; }
  /// Active tape entries per period, summed over phases; constants are
  /// hoisted off the tape (both run modes). The interpreted simulator's
  /// equivalent cost is nodes * period.
  std::size_t scheduled_ops_per_period() const;

 private:
  /// One op on the tape, pre-resolved for the phase loops. Kept flat and
  /// index-based so the per-phase lists walk contiguous memory.
  struct Op {
    OpKind kind = OpKind::kConst;
    std::uint8_t shift = 0;      ///< kShl/kShr amount
    std::uint8_t wrap_shift = 0; ///< 64 - width, for two's-complement wrap
    std::uint8_t width = 1;      ///< node width (activity masks)
    std::int32_t dst = 0;        ///< value-array slot (node id + 1)
    std::int32_t a = 0;          ///< operand slot (0 = constant zero)
    std::int32_t b = 0;          ///< second operand slot
    /// kInput/kOutput/kRequant/kReg/kDecimate/kConst: side-table index;
    /// kMux: select operand's value slot.
    std::int32_t aux = -1;
  };

  /// Register/decimate capture: next_state[state] = value[src] at the
  /// start of every tick the node's domain fires on.
  struct Capture {
    std::int32_t state = 0;  ///< index into next_state array
    std::int32_t src = 0;    ///< value-array slot
  };

  /// Requantizer parameters (kRequant nodes only).
  struct RequantParams {
    int src_frac = 0;
    fx::Format fmt{1, 0};
    fx::Rounding rounding = fx::Rounding::kTruncate;
    fx::Overflow overflow = fx::Overflow::kWrap;
  };

  struct Phase {
    std::vector<Capture> captures;
    std::vector<Op> ops;  ///< constant-free tape, creation order
  };

  template <bool kActivity>
  void tick_loop(std::uint64_t ticks, std::vector<std::int64_t>& value,
                 std::vector<std::int64_t>& next_state,
                 std::vector<std::span<const std::int64_t>>& in_streams,
                 std::vector<std::size_t>& in_cursor,
                 std::vector<std::vector<std::int64_t>>& out_streams,
                 Activity* activity) const;

  /// Commit every constant's value slot, counting the first-commit toggle
  /// when `activity` is non-null. Runs once, on the first tick, after that
  /// tick's captures (the interpreter's registers see the pre-commit zeros
  /// at t = 0).
  void commit_consts(std::vector<std::int64_t>& value,
                     Activity* activity) const;

  /// Analytic update counts: a node in domain d is active on
  /// ceil(ticks / d) of the first `ticks` base ticks.
  void fill_updates(std::uint64_t ticks, Activity* activity) const;

  std::size_t node_count_ = 0;
  int period_ = 1;
  std::vector<Phase> phases_;
  std::vector<RequantParams> requants_;
  std::vector<std::int64_t> const_values_;
  std::vector<std::int32_t> const_slots_;   ///< value slot per const
  std::vector<std::uint8_t> const_widths_;  ///< width per const (toggles)
  std::vector<NodeId> input_nodes_;         ///< aux -> kInput node id
  std::vector<int> input_clock_div_;
  std::vector<std::string> input_names_;
  std::vector<NodeId> output_nodes_;        ///< aux -> kOutput node id
  std::vector<int> output_clock_div_;
  std::vector<int> node_clock_div_;         ///< per node (analytic updates)
  std::size_t state_count_ = 0;             ///< kReg/kDecimate slots
};

}  // namespace dsadc::rtl
