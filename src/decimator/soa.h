// Structure-of-arrays kernel support for the bank stages.
//
// The bank classes in cic/fir/hbf/scaler run N independent channels in
// lockstep over channel-interleaved frames (element index = frame * C +
// channel), so the per-channel recurrences become independent lanes and
// the inner loops auto-vectorize; at N = 1 they are the chain's block
// path. Bit-exactness against the push() references requires
// reproducing fx::requantize digit for digit; Requant
// precomputes the shift/round/clamp parameters once per call site and
// applies them inline, tallying round/saturate events locally so the
// per-event counter branches leave the inner loops. flush() adds the
// tallies to the same fx.<event>.<site> counters the per-sample push()
// references use, making counter totals identical for identical data.
// Every bank kernel requantizes this way; fx::requantize with a counter
// site is left to the push()/step() reference paths.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "src/fixedpoint/fixed.h"
#include "src/obs/obs.h"
#include "src/obs/store/tracker.h"

namespace dsadc::decim::soa {

/// Precomputed fx::requantize parameters for a fixed (src_frac, fmt,
/// rounding) call site with Overflow::kSaturate semantics.
struct Requant {
  int shift = 0;                ///< src_frac - fmt.frac
  std::int64_t round_add = 0;   ///< 2^(shift-1) for round-nearest, else 0
  std::uint64_t drop_mask = 0;  ///< low `shift` bits (round-event detect)
  std::int64_t lo = 0, hi = 0;  ///< saturation bounds
  const fx::EventCounters* site = nullptr;

  Requant() = default;
  Requant(int src_frac, const fx::Format& fmt, fx::Rounding rounding,
          const fx::EventCounters& counters)
      : shift(src_frac - fmt.frac), site(&counters) {
    // fx::requantize special-cases |shift| >= 63; no designed stage format
    // gets near it, so the block paths refuse. Stages build their Requants
    // at construction, so such a config is refused there, not per block.
    // The width is checked before the saturation bounds are computed: for
    // a width outside [1, 62], raw_min/raw_max are a bad shift or negation.
    if (fmt.width < 1 || fmt.width > 62) {
      throw std::invalid_argument("soa::Requant: width must be in [1, 62]");
    }
    if (shift >= 63 || shift <= -63) {
      throw std::invalid_argument("soa::Requant: shift out of range");
    }
    lo = fmt.raw_min();
    hi = fmt.raw_max();
    if (shift > 0) {
      drop_mask = (std::uint64_t{1} << shift) - 1;
      if (rounding == fx::Rounding::kRoundNearest) {
        round_add = std::int64_t{1} << (shift - 1);
      }
    }
  }
};

/// Per-block event tallies, bulk-flushed to the site counters. Each
/// non-zero tally also becomes one fx event in the current trace-store
/// transaction (value = hit count), so a block records one event per
/// site instead of one per hit.
struct RequantTally {
  std::uint64_t rounds = 0;
  std::uint64_t saturates = 0;

  void flush(const Requant& rq) {
    if (obs::enabled() && rq.site != nullptr) {
      if (rounds != 0) {
        rq.site->round->add(rounds);
        obs::store::note_fx(rq.site->round_id,
                            static_cast<std::int64_t>(rounds));
      }
      if (saturates != 0) {
        rq.site->saturate->add(saturates);
        obs::store::note_fx(rq.site->saturate_id,
                            static_cast<std::int64_t>(saturates));
      }
    }
    rounds = 0;
    saturates = 0;
  }
};

/// Inline fx::requantize (saturating): identical result and identical
/// round/saturate event decisions as the scalar function.
inline std::int64_t requantize(std::int64_t v, const Requant& rq,
                               RequantTally& tally) {
  if (rq.shift > 0) {
    tally.rounds +=
        static_cast<std::uint64_t>((static_cast<std::uint64_t>(v) &
                                    rq.drop_mask) != 0);
    v = (v + rq.round_add) >> rq.shift;
  } else if (rq.shift < 0) {
    v = static_cast<std::int64_t>(static_cast<std::uint64_t>(v)
                                  << -rq.shift);
  }
  const std::int64_t c = v < rq.lo ? rq.lo : (v > rq.hi ? rq.hi : v);
  tally.saturates += static_cast<std::uint64_t>(c != v);
  return c;
}

/// Two's-complement wrap to `width` bits via mask + sign extension; equal
/// to fx::wrap_to for every input but expressed with unsigned ops so the
/// vectorizer can use plain add/and/xor/sub lanes.
struct Wrap {
  std::uint64_t mask = 0;
  std::uint64_t sign = 0;

  Wrap() = default;
  explicit Wrap(int width)
      : mask((std::uint64_t{1} << width) - 1),
        sign(std::uint64_t{1} << (width - 1)) {}

  std::int64_t operator()(std::int64_t v) const {
    const std::uint64_t u = static_cast<std::uint64_t>(v) & mask;
    return static_cast<std::int64_t>((u ^ sign) - sign);
  }
};

}  // namespace dsadc::decim::soa
