#include "src/rtl/compiled_sim.h"

#include <bit>
#include <numeric>
#include <stdexcept>

#include "src/obs/trace.h"

namespace dsadc::rtl {
namespace {

// Clock periods are products of the chain's decimation factors (16 for the
// paper chain); the cap only guards against pathological hand-built
// netlists whose schedule tables would not fit in memory.
constexpr int kMaxPeriod = 1 << 20;

inline std::uint64_t hamming(std::int64_t a, std::int64_t b, int width) {
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  std::uint64_t x =
      (static_cast<std::uint64_t>(a) ^ static_cast<std::uint64_t>(b)) & mask;
#if defined(__POPCNT__)
  return static_cast<std::uint64_t>(std::popcount(x));
#else
  // SWAR popcount: without -mpopcnt, std::popcount lowers to a libgcc call
  // whose register clobbers dominate the activity loop. Twelve inline ops
  // beat the call by ~3x on the paper-chain activity benchmark.
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return (x * 0x0101010101010101ull) >> 56;
#endif
}

/// Two's-complement wrap to width via a pre-computed shift pair; matches
/// fx::wrap_to bit-for-bit for widths in [1, 62].
inline std::int64_t wrap_shift(std::int64_t v, int shift) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(v) << shift) >>
         shift;
}

}  // namespace

CompiledSimulator::CompiledSimulator(const Module& module) {
  const auto& nodes = module.nodes();
  node_count_ = nodes.size();

  period_ = 1;
  node_clock_div_.reserve(node_count_);
  for (const Node& node : nodes) {
    if (node.clock_div < 1) {
      throw std::invalid_argument("CompiledSimulator: clock_div must be >= 1");
    }
    node_clock_div_.push_back(node.clock_div);
    period_ = static_cast<int>(
        std::lcm<std::int64_t>(period_, node.clock_div));
    if (period_ > kMaxPeriod) {
      throw std::invalid_argument(
          "CompiledSimulator: clock-domain period exceeds the schedule cap");
    }
  }

  // Build the op tape, one entry per node, operands resolved to value
  // slots (slot 0 pinned to zero for kInvalidNode).
  std::vector<Op> tape(node_count_);
  std::vector<std::int32_t> state_slot(node_count_, -1);
  for (std::size_t i = 0; i < node_count_; ++i) {
    const Node& node = nodes[i];
    Op& op = tape[i];
    op.kind = node.kind;
    op.dst = static_cast<std::int32_t>(i) + 1;
    op.a = node.a == kInvalidNode ? 0 : node.a + 1;
    op.b = node.b == kInvalidNode ? 0 : node.b + 1;
    op.width = static_cast<std::uint8_t>(node.width);
    op.wrap_shift = static_cast<std::uint8_t>(64 - node.width);
    switch (node.kind) {
      case OpKind::kInput:
        op.aux = static_cast<std::int32_t>(input_nodes_.size());
        input_nodes_.push_back(static_cast<NodeId>(i));
        input_clock_div_.push_back(node.clock_div);
        input_names_.push_back(node.name);
        break;
      case OpKind::kConst:
        op.aux = static_cast<std::int32_t>(const_values_.size());
        const_values_.push_back(node.value);
        const_slots_.push_back(op.dst);
        const_widths_.push_back(op.width);
        break;
      case OpKind::kMux:
        op.aux = node.c == kInvalidNode ? 0 : node.c + 1;
        break;
      case OpKind::kShl:
      case OpKind::kShr:
        op.shift = static_cast<std::uint8_t>(node.amount);
        break;
      case OpKind::kReg:
      case OpKind::kDecimate:
        op.aux = static_cast<std::int32_t>(state_count_);
        state_slot[i] = op.aux;
        ++state_count_;
        break;
      case OpKind::kRequant:
        op.aux = static_cast<std::int32_t>(requants_.size());
        requants_.push_back(
            {node.src_frac, node.fmt, node.rounding, node.overflow});
        break;
      case OpKind::kOutput:
        op.aux = static_cast<std::int32_t>(output_nodes_.size());
        output_nodes_.push_back(static_cast<NodeId>(i));
        output_clock_div_.push_back(node.clock_div);
        break;
      default:
        break;
    }
  }

  // Per-phase schedules: a node is active on phase p iff p is a multiple
  // of its clock_div (clock_div divides the period, so t % clock_div == 0
  // depends only on t mod period). Creation order within a phase matches
  // the interpreted simulator's propagation order exactly. Constants live
  // off-tape: they commit once on the first tick (commit_consts) and their
  // update counts are analytic like everyone else's.
  phases_.assign(static_cast<std::size_t>(period_), {});
  for (std::size_t i = 0; i < node_count_; ++i) {
    const Node& node = nodes[i];
    for (int p = 0; p < period_; p += node.clock_div) {
      Phase& phase = phases_[static_cast<std::size_t>(p)];
      if (node.kind == OpKind::kReg || node.kind == OpKind::kDecimate) {
        phase.captures.push_back({state_slot[i], tape[i].a});
      }
      if (node.kind != OpKind::kConst) phase.ops.push_back(tape[i]);
    }
  }
}

std::size_t CompiledSimulator::scheduled_ops_per_period() const {
  std::size_t n = 0;
  for (const Phase& p : phases_) n += p.ops.size();
  return n;
}

void CompiledSimulator::commit_consts(std::vector<std::int64_t>& value,
                                      Activity* activity) const {
  for (std::size_t i = 0; i < const_slots_.size(); ++i) {
    const auto slot = static_cast<std::size_t>(const_slots_[i]);
    if (activity != nullptr) {
      activity->bit_toggles[slot - 1] +=
          hamming(value[slot], const_values_[i], const_widths_[i]);
    }
    value[slot] = const_values_[i];
  }
}

void CompiledSimulator::fill_updates(std::uint64_t ticks,
                                     Activity* activity) const {
  for (std::size_t i = 0; i < node_count_; ++i) {
    const auto div = static_cast<std::uint64_t>(node_clock_div_[i]);
    activity->updates[i] = (ticks + div - 1) / div;
  }
}

template <bool kActivity>
void CompiledSimulator::tick_loop(
    std::uint64_t ticks, std::vector<std::int64_t>& value,
    std::vector<std::int64_t>& next_state,
    std::vector<std::span<const std::int64_t>>& in_streams,
    std::vector<std::size_t>& in_cursor,
    std::vector<std::vector<std::int64_t>>& out_streams,
    Activity* activity) const {
  int phase_idx = 0;
  for (std::uint64_t t = 0; t < ticks; ++t) {
    const Phase& phase = phases_[static_cast<std::size_t>(phase_idx)];
    if (++phase_idx == period_) phase_idx = 0;

    // Registers and rate boundaries in active domains capture their
    // operand values from the end of the previous tick.
    for (const Capture& cap : phase.captures) {
      next_state[static_cast<std::size_t>(cap.state)] =
          value[static_cast<std::size_t>(cap.src)];
    }

    // Constants commit exactly once, on the first tick, after that tick's
    // captures: the interpreter's registers read the pre-commit zeros at
    // t = 0, and every later capture sees the committed values.
    if (t == 0) commit_consts(value, kActivity ? activity : nullptr);

    // Propagate active nodes in creation (topological) order. Activity
    // mode adds only the per-op toggle popcount; update counts are filled
    // analytically by run().
    for (const Op& op : phase.ops) {
      std::int64_t out;
      switch (op.kind) {
        case OpKind::kInput:
          out = wrap_shift(
              in_streams[static_cast<std::size_t>(op.aux)]
                        [in_cursor[static_cast<std::size_t>(op.aux)]++],
              op.wrap_shift);
          break;
        case OpKind::kReg:
        case OpKind::kDecimate:
          out = next_state[static_cast<std::size_t>(op.aux)];
          break;
        case OpKind::kAdd:
          out = wrap_shift(value[static_cast<std::size_t>(op.a)] +
                               value[static_cast<std::size_t>(op.b)],
                           op.wrap_shift);
          break;
        case OpKind::kSub:
          out = wrap_shift(value[static_cast<std::size_t>(op.a)] -
                               value[static_cast<std::size_t>(op.b)],
                           op.wrap_shift);
          break;
        case OpKind::kNeg:
          out = wrap_shift(-value[static_cast<std::size_t>(op.a)],
                           op.wrap_shift);
          break;
        case OpKind::kShl:
          out = value[static_cast<std::size_t>(op.a)] << op.shift;
          break;
        case OpKind::kShr:
          out = value[static_cast<std::size_t>(op.a)] >> op.shift;
          break;
        case OpKind::kMux:
          out = wrap_shift(value[static_cast<std::size_t>(op.aux)] != 0
                               ? value[static_cast<std::size_t>(op.a)]
                               : value[static_cast<std::size_t>(op.b)],
                           op.wrap_shift);
          break;
        case OpKind::kRequant: {
          const RequantParams& rq = requants_[static_cast<std::size_t>(op.aux)];
          out = fx::requantize(value[static_cast<std::size_t>(op.a)],
                               rq.src_frac, rq.fmt, rq.rounding, rq.overflow);
          break;
        }
        case OpKind::kOutput:
          out = value[static_cast<std::size_t>(op.a)];
          out_streams[static_cast<std::size_t>(op.aux)].push_back(out);
          break;
        default:
          out = 0;
          break;
      }
      if constexpr (kActivity) {
        activity->bit_toggles[static_cast<std::size_t>(op.dst - 1)] +=
            hamming(value[static_cast<std::size_t>(op.dst)], out, op.width);
      }
      value[static_cast<std::size_t>(op.dst)] = out;
    }
  }
}

SimResult CompiledSimulator::run(
    const std::map<NodeId, std::span<const std::int64_t>>& inputs,
    const CompiledRunOptions& options) const {
  DSADC_TRACE_SPAN("rtl_sim_compiled");

  // Bind streams to input cursors and derive the run length; the checks
  // mirror the interpreted simulator so either engine rejects the same
  // stimulus the same way.
  std::vector<std::span<const std::int64_t>> in_streams(input_nodes_.size());
  std::vector<bool> bound(input_nodes_.size(), false);
  std::uint64_t ticks = ~std::uint64_t{0};
  for (const auto& [id, stream] : inputs) {
    std::size_t slot = input_nodes_.size();
    for (std::size_t i = 0; i < input_nodes_.size(); ++i) {
      if (input_nodes_[i] == id) slot = i;
    }
    if (slot == input_nodes_.size()) {
      throw std::invalid_argument("Simulator: stream bound to non-input node");
    }
    in_streams[slot] = stream;
    bound[slot] = true;
    ticks = std::min<std::uint64_t>(
        ticks,
        stream.size() * static_cast<std::uint64_t>(input_clock_div_[slot]));
  }
  if (ticks == ~std::uint64_t{0}) {
    throw std::invalid_argument("Simulator: no input streams");
  }
  for (std::size_t i = 0; i < input_nodes_.size(); ++i) {
    if (ticks > 0 && !bound[i]) {
      throw std::invalid_argument("Simulator: unbound input " +
                                  input_names_[i]);
    }
  }

  SimResult result;
  result.activity.bit_toggles.assign(node_count_, 0);
  result.activity.updates.assign(node_count_, 0);
  result.activity.base_ticks = ticks;

  // Slot 0 is the pinned zero (kInvalidNode operands read it).
  std::vector<std::int64_t> value(node_count_ + 1, 0);
  std::vector<std::int64_t> next_state(state_count_, 0);
  std::vector<std::size_t> in_cursor(input_nodes_.size(), 0);
  std::vector<std::vector<std::int64_t>> out_streams(output_nodes_.size());
  for (std::size_t i = 0; i < output_nodes_.size(); ++i) {
    out_streams[i].reserve(
        static_cast<std::size_t>(
            ticks / static_cast<std::uint64_t>(output_clock_div_[i])) +
        1);
  }

  if (options.activity) {
    if (ticks > 0) fill_updates(ticks, &result.activity);
    tick_loop<true>(ticks, value, next_state, in_streams, in_cursor,
                    out_streams, &result.activity);
  } else {
    tick_loop<false>(ticks, value, next_state, in_streams, in_cursor,
                     out_streams, nullptr);
  }

  for (std::size_t i = 0; i < output_nodes_.size(); ++i) {
    result.outputs[output_nodes_[i]] = std::move(out_streams[i]);
  }
  return result;
}

}  // namespace dsadc::rtl
