#include "src/rtl/sim.h"

#include <bit>
#include <stdexcept>

#include "src/obs/trace.h"

namespace dsadc::rtl {
namespace {

std::uint64_t hamming(std::int64_t a, std::int64_t b, int width) {
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
  std::uint64_t x =
      (static_cast<std::uint64_t>(a) ^ static_cast<std::uint64_t>(b)) & mask;
#if defined(__POPCNT__)
  return static_cast<std::uint64_t>(std::popcount(x));
#else
  // SWAR popcount; see compiled_sim.cpp for why the libgcc fallback of
  // std::popcount is avoided here.
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return (x * 0x0101010101010101ull) >> 56;
#endif
}

}  // namespace

Simulator::Simulator(const Module& module) : module_(module) {}

SimResult Simulator::run(
    const std::map<NodeId, std::span<const std::int64_t>>& inputs) {
  DSADC_TRACE_SPAN("rtl_sim");
  const auto& nodes = module_.nodes();
  const std::size_t n = nodes.size();

  // Determine run length: min over inputs of samples * clock_div.
  std::uint64_t ticks = ~std::uint64_t{0};
  for (const auto& [id, stream] : inputs) {
    const auto& node = module_.node(id);
    if (node.kind != OpKind::kInput) {
      throw std::invalid_argument("Simulator: stream bound to non-input node");
    }
    ticks = std::min<std::uint64_t>(
        ticks, stream.size() * static_cast<std::uint64_t>(node.clock_div));
  }
  if (ticks == ~std::uint64_t{0}) {
    throw std::invalid_argument("Simulator: no input streams");
  }

  SimResult result;
  result.activity.bit_toggles.assign(n, 0);
  result.activity.updates.assign(n, 0);
  result.activity.base_ticks = ticks;

  // Resolve the input map to a dense per-node stream table once, so the
  // tick loop never touches the std::map. Unbound inputs keep the lazy
  // failure semantics: they only throw if a tick would actually read them.
  std::vector<const std::int64_t*> bound_stream(n, nullptr);
  for (const auto& [id, stream] : inputs) {
    bound_stream[static_cast<std::size_t>(id)] = stream.data();
  }

  std::vector<std::int64_t> value(n, 0);
  std::vector<std::int64_t> next_reg(n, 0);

  for (std::uint64_t t = 0; t < ticks; ++t) {
    // Phase 1: registers and decimators in active domains capture their
    // operand values from the end of the previous tick.
    for (std::size_t i = 0; i < n; ++i) {
      const Node& node = nodes[i];
      if (node.kind != OpKind::kReg && node.kind != OpKind::kDecimate) continue;
      if (t % static_cast<std::uint64_t>(node.clock_div) != 0) continue;
      const std::int64_t captured =
          node.a == kInvalidNode ? 0 : value[static_cast<std::size_t>(node.a)];
      next_reg[i] = captured;
    }
    // Phase 2: propagate in creation (topological) order.
    for (std::size_t i = 0; i < n; ++i) {
      const Node& node = nodes[i];
      const bool active = t % static_cast<std::uint64_t>(node.clock_div) == 0;
      std::int64_t out = value[i];
      switch (node.kind) {
        case OpKind::kInput:
          if (active) {
            const std::int64_t* stream = bound_stream[i];
            if (stream == nullptr) {
              throw std::invalid_argument("Simulator: unbound input " + node.name);
            }
            out = stream[t / static_cast<std::uint64_t>(node.clock_div)];
            out = fx::wrap_to(out, fx::Format{node.width, 0});
          }
          break;
        case OpKind::kConst:
          out = node.value;
          break;
        case OpKind::kReg:
        case OpKind::kDecimate:
          if (active) out = next_reg[i];
          break;
        case OpKind::kAdd:
          if (active) {
            out = fx::wrap_to(value[static_cast<std::size_t>(node.a)] +
                                  value[static_cast<std::size_t>(node.b)],
                              fx::Format{node.width, 0});
          }
          break;
        case OpKind::kSub:
          if (active) {
            out = fx::wrap_to(value[static_cast<std::size_t>(node.a)] -
                                  value[static_cast<std::size_t>(node.b)],
                              fx::Format{node.width, 0});
          }
          break;
        case OpKind::kNeg:
          if (active) {
            out = fx::wrap_to(-value[static_cast<std::size_t>(node.a)],
                              fx::Format{node.width, 0});
          }
          break;
        case OpKind::kShl:
          if (active) out = value[static_cast<std::size_t>(node.a)] << node.amount;
          break;
        case OpKind::kShr:
          if (active) out = value[static_cast<std::size_t>(node.a)] >> node.amount;
          break;
        case OpKind::kMux:
          if (active) {
            out = fx::wrap_to(value[static_cast<std::size_t>(node.c)] != 0
                                  ? value[static_cast<std::size_t>(node.a)]
                                  : value[static_cast<std::size_t>(node.b)],
                              fx::Format{node.width, 0});
          }
          break;
        case OpKind::kRequant:
          if (active) {
            out = fx::requantize(value[static_cast<std::size_t>(node.a)],
                                 node.src_frac, node.fmt, node.rounding,
                                 node.overflow);
          }
          break;
        case OpKind::kOutput:
          if (active) out = value[static_cast<std::size_t>(node.a)];
          break;
      }
      if (active) {
        result.activity.updates[i]++;
        result.activity.bit_toggles[i] += hamming(value[i], out, node.width);
        value[i] = out;
        if (node.kind == OpKind::kOutput) {
          result.outputs[static_cast<NodeId>(i)].push_back(out);
        }
      }
    }
  }
  return result;
}

}  // namespace dsadc::rtl
