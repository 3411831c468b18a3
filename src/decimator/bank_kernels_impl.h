// Bank-kernel loop bodies, compiled once per SIMD tier.
//
// Included (no include guard on purpose) by bank_kernels_{scalar,avx2,
// avx512}.cpp with DSADC_SIMD_NS set to the tier's namespace; each TU gets
// its own target flags from CMake and exports one BankKernels table. The
// bodies are the exact loops the bank stages ran before dispatch existed:
// integer-exact lane arithmetic, taps in the outer loop, one independent
// accumulator chain per channel, so every tier computes identical bits.
//
// The four lane-loop kernels (cic_stage, fir_emit, hbf_g2, hbf_out) are
// templates on a compile-time width W, and the table entry picks W = 1
// when C == 1 (DecimationChain and every scalar session are 1-lane
// banks), W = 0 (width C read at run time) otherwise. The W = 0 bodies
// vectorize across lanes. At one lane there is nothing to vectorize that
// way, so W = 1 is an explicit specialization with the loops turned
// around: taps or sections outside, consecutive frames inside as the
// vector lanes. Each output is still the same sum in the same order --
// the Sinc stage's the same value mod 2^w -- so every width computes
// identical bits.
#include <cstddef>
#include <cstdint>

#include "src/decimator/simd.h"
#include "src/decimator/soa.h"

namespace dsadc::decim::simd {
namespace DSADC_SIMD_NS {
namespace {

/// soa::Requant + its tallies copied into function-locals: accumulating
/// rounds/saturates through a RequantTally& (and reading bounds through a
/// Requant&) defeats the vectorizer's aliasing analysis, which must assume
/// the row stores below may overwrite them. Same arithmetic, same event
/// decisions; commit() adds the counts back in bulk.
struct Rq {
  std::int64_t round_add;
  std::int64_t lo, hi;
  std::uint64_t drop_mask;
  int shift;
  std::uint64_t rounds = 0;
  std::uint64_t saturates = 0;

  explicit Rq(const soa::Requant& rq)
      : round_add(rq.round_add),
        lo(rq.lo),
        hi(rq.hi),
        drop_mask(rq.drop_mask),
        shift(rq.shift) {}

  std::int64_t operator()(std::int64_t v) {
    if (shift > 0) {
      rounds += static_cast<std::uint64_t>(
          (static_cast<std::uint64_t>(v) & drop_mask) != 0);
      v = (v + round_add) >> shift;
    } else if (shift < 0) {
      v = static_cast<std::int64_t>(static_cast<std::uint64_t>(v) << -shift);
    }
    const std::int64_t c = v < lo ? lo : (v > hi ? hi : v);
    saturates += static_cast<std::uint64_t>(c != v);
    return c;
  }

  void commit(soa::RequantTally& tally) const {
    tally.rounds += rounds;
    tally.saturates += saturates;
  }
};

template <std::size_t W>
std::size_t cic_stage_w(std::int64_t* __restrict data, std::size_t frames,
                        std::size_t lanes, std::int64_t* __restrict integ,
                        std::int64_t* __restrict comb, std::size_t order,
                        std::size_t skip, std::size_t decim, soa::Wrap wrap) {
  const std::size_t C = W != 0 ? W : lanes;
  std::size_t n_out = 0;
  std::size_t next_keep = skip;
  for (std::size_t f = 0; f < frames; ++f) {
    const std::int64_t* const row = data + f * C;
    // Integrator cascade: section 0 folds the input wrap into its own
    // (wrap(st + wrap(v)) == wrap(st + v)); section s adds section s-1's
    // state row -- the per-sample cascade order of the scalar push().
    for (std::size_t c = 0; c < C; ++c) integ[c] = wrap(integ[c] + row[c]);
    for (std::size_t s = 1; s < order; ++s) {
      std::int64_t* const cur = integ + s * C;
      const std::int64_t* const prev = integ + (s - 1) * C;
      for (std::size_t c = 0; c < C; ++c) cur[c] = wrap(cur[c] + prev[c]);
    }
    if (f != next_keep) continue;
    next_keep += decim;
    // Kept frame: run the comb cascade in the output row itself. n_out
    // never exceeds f, so the write stays at or behind the read cursor.
    std::int64_t* const orow = data + n_out * C;
    const std::int64_t* const top = integ + (order - 1) * C;
    for (std::size_t c = 0; c < C; ++c) orow[c] = top[c];
    for (std::size_t s = 0; s < order; ++s) {
      std::int64_t* const st = comb + s * C;
      for (std::size_t c = 0; c < C; ++c) {
        const std::int64_t cur = orow[c];
        orow[c] = wrap(cur - st[c]);
        st[c] = cur;
      }
    }
    ++n_out;
  }
  return n_out;
}

/// K consecutive integrator sections fused into one prefix-sum pass over
/// a 1-lane block, in modular uint64_t arithmetic: the K states live in
/// registers and each frame's value runs down the sections in cascade
/// order.
template <std::size_t K>
void integrate_pass(std::uint64_t* __restrict x, std::size_t frames,
                    std::int64_t* __restrict integ) {
  std::uint64_t st[K];
  for (std::size_t k = 0; k < K; ++k) {
    st[k] = static_cast<std::uint64_t>(integ[k]);
  }
  for (std::size_t f = 0; f < frames; ++f) {
    std::uint64_t v = x[f];
    for (std::size_t k = 0; k < K; ++k) v = st[k] += v;
    x[f] = v;
  }
  for (std::size_t k = 0; k < K; ++k) {
    integ[k] = static_cast<std::int64_t>(st[k]);
  }
}

// W = 1: the modular (Hogenauer) form. The integrators are prefix-sum
// passes over the block in uint64_t, up to four sections per pass, with
// no wrap per add -- a wrap on the loop-carried chain is what bounds the
// W = 0 body at one lane. The comb cascade runs on the kept frames, one
// vectorized difference pass per section, also in uint64_t.
// Z/2^64 -> Z/2^w is a ring map, so the one wrap at the output store
// gives push()'s samples bit for bit. The state is left unwrapped:
// congruent mod 2^w to what the W = 0 body keeps.
template <>
std::size_t cic_stage_w<1>(std::int64_t* __restrict data, std::size_t frames,
                           std::size_t, std::int64_t* __restrict integ,
                           std::int64_t* __restrict comb, std::size_t order,
                           std::size_t skip, std::size_t decim,
                           soa::Wrap wrap) {
  auto* const x = reinterpret_cast<std::uint64_t*>(data);
  for (std::size_t s = 0; s < order;) {
    if (order - s >= 4) {
      integrate_pass<4>(x, frames, integ + s);
      s += 4;
    } else if (order - s >= 2) {
      integrate_pass<2>(x, frames, integ + s);
      s += 2;
    } else {
      integrate_pass<1>(x, frames, integ + s);
      s += 1;
    }
  }
  if (skip >= frames) return 0;
  const std::size_t n_out = (frames - 1 - skip) / decim + 1;
  // Keep every decim-th top-integrator value; n_out <= the read index, so
  // the compaction runs in place.
  for (std::size_t j = 0; j < n_out; ++j) x[j] = x[skip + j * decim];
  for (std::size_t s = 0; s < order; ++s) {
    // y[j] = v[j] - v[j-1], v[-1] the section's delay state; walking j
    // down reads each v[j-1] before it is overwritten.
    const std::uint64_t last = x[n_out - 1];
    for (std::size_t j = n_out - 1; j > 0; --j) x[j] -= x[j - 1];
    x[0] -= static_cast<std::uint64_t>(comb[s]);
    comb[s] = static_cast<std::int64_t>(last);
  }
  for (std::size_t j = 0; j < n_out; ++j) {
    data[j] = wrap(static_cast<std::int64_t>(x[j]));
  }
  return n_out;
}

template <std::size_t W>
std::size_t fir_emit_w(std::int64_t* __restrict data,
                       const std::int64_t* __restrict ext, std::size_t frames,
                       std::size_t lanes, const std::int64_t* __restrict taps,
                       std::size_t tap_count, std::size_t first,
                       std::size_t decim, std::int64_t* __restrict acc,
                       const soa::Requant& rq, soa::RequantTally& tally) {
  const std::size_t C = W != 0 ? W : lanes;
  Rq lrq(rq);
  std::size_t n_out = 0;
  for (std::size_t i = first; i < frames; i += decim, ++n_out) {
    const std::int64_t* const window = ext + (tap_count - 1 + i) * C;
    for (std::size_t c = 0; c < C; ++c) acc[c] = 0;
    for (std::size_t k = 0; k < tap_count; ++k) {
      const std::int64_t t = taps[k];
      const std::int64_t* const wrow =
          window - static_cast<std::ptrdiff_t>(k * C);
      for (std::size_t c = 0; c < C; ++c) acc[c] += t * wrow[c];
    }
    std::int64_t* const orow = data + n_out * C;
    for (std::size_t c = 0; c < C; ++c) orow[c] = lrq(acc[c]);
  }
  lrq.commit(tally);
  return n_out;
}

// W = 1: taps on the outside, outputs on the inside, accumulating
// straight into `data` (`acc` goes unused); then one requantize pass.
// Every output still sums its products in tap order.
template <>
std::size_t fir_emit_w<1>(std::int64_t* __restrict data,
                          const std::int64_t* __restrict ext,
                          std::size_t frames, std::size_t,
                          const std::int64_t* __restrict taps,
                          std::size_t tap_count, std::size_t first,
                          std::size_t decim, std::int64_t*,
                          const soa::Requant& rq, soa::RequantTally& tally) {
  if (first >= frames) return 0;
  const std::size_t n_out = (frames - 1 - first) / decim + 1;
  for (std::size_t j = 0; j < n_out; ++j) data[j] = 0;
  for (std::size_t k = 0; k < tap_count; ++k) {
    const std::int64_t t = taps[k];
    const std::int64_t* const x = ext + (tap_count - 1 + first - k);
    // Unit stride is its own loop so the equalizer (decimation 1)
    // vectorizes; the strided form is a gather.
    if (decim == 1) {
      for (std::size_t j = 0; j < n_out; ++j) data[j] += t * x[j];
    } else {
      for (std::size_t j = 0; j < n_out; ++j) data[j] += t * x[j * decim];
    }
  }
  Rq lrq(rq);
  for (std::size_t j = 0; j < n_out; ++j) data[j] = lrq(data[j]);
  lrq.commit(tally);
  return n_out;
}

template <std::size_t W>
void hbf_g2_w(std::int64_t* __restrict stream,
              const std::int64_t* __restrict ext, std::size_t frames,
              std::size_t lanes, const std::int64_t* __restrict f2,
              std::size_t n2, const soa::Requant& rq_prod,
              const soa::Requant& rq_int, soa::RequantTally& t_prod,
              soa::RequantTally& t_int) {
  const std::size_t C = W != 0 ? W : lanes;
  Rq lrq_prod(rq_prod);
  Rq lrq_int(rq_int);
  const std::size_t n = 2 * n2;  // history rows ahead of the stream
  for (std::size_t m = 0; m < frames; ++m) {
    const std::int64_t* const newest = ext + (n + m) * C;
    std::int64_t* const orow = stream + m * C;
    // The j = 1 product initializes the accumulator row in place, the
    // rest add -- same j = 1..n2 order as the push() reference.
    const std::int64_t* const near1 = newest - (n2 - 1) * C;
    const std::int64_t* const far1 = newest - n2 * C;
    for (std::size_t c = 0; c < C; ++c) {
      orow[c] = lrq_prod(f2[0] * (near1[c] + far1[c]));
    }
    for (std::size_t j = 2; j <= n2; ++j) {
      const std::int64_t coeff = f2[j - 1];
      const std::int64_t* const near_row = newest - (n2 - j) * C;
      const std::int64_t* const far_row = newest - (n2 + j - 1) * C;
      for (std::size_t c = 0; c < C; ++c) {
        orow[c] += lrq_prod(coeff * (near_row[c] + far_row[c]));
      }
    }
    for (std::size_t c = 0; c < C; ++c) orow[c] = lrq_int(orow[c]);
  }
  lrq_prod.commit(t_prod);
  lrq_int.commit(t_int);
}

// W = 1: tap pairs on the outside, output frames on the inside. Each
// output still sums its requantized products in j order, and the event
// tallies are sums, so samples and counts match the W = 0 body.
template <>
void hbf_g2_w<1>(std::int64_t* __restrict stream,
                 const std::int64_t* __restrict ext, std::size_t frames,
                 std::size_t, const std::int64_t* __restrict f2,
                 std::size_t n2, const soa::Requant& rq_prod,
                 const soa::Requant& rq_int, soa::RequantTally& t_prod,
                 soa::RequantTally& t_int) {
  Rq lrq_prod(rq_prod);
  Rq lrq_int(rq_int);
  const std::int64_t* const newest = ext + 2 * n2;
  for (std::size_t j = 1; j <= n2; ++j) {
    const std::int64_t coeff = f2[j - 1];
    const std::int64_t* const near_row = newest - (n2 - j);
    const std::int64_t* const far_row = newest - (n2 + j - 1);
    if (j == 1) {
      for (std::size_t m = 0; m < frames; ++m) {
        stream[m] = lrq_prod(coeff * (near_row[m] + far_row[m]));
      }
    } else {
      for (std::size_t m = 0; m < frames; ++m) {
        stream[m] += lrq_prod(coeff * (near_row[m] + far_row[m]));
      }
    }
  }
  for (std::size_t m = 0; m < frames; ++m) stream[m] = lrq_int(stream[m]);
  lrq_prod.commit(t_prod);
  lrq_int.commit(t_int);
}

template <std::size_t W>
void hbf_out_w(std::int64_t* __restrict data,
               const std::int64_t* __restrict half_path,
               const std::int64_t* const* __restrict branches, std::size_t n1,
               std::int64_t half_coeff, const std::int64_t* __restrict f1,
               std::size_t out_frames, std::size_t lanes,
               const soa::Requant& rq_prod, const soa::Requant& rq_out,
               soa::RequantTally& t_prod, soa::RequantTally& t_out) {
  const std::size_t C = W != 0 ? W : lanes;
  Rq lrq_prod(rq_prod);
  Rq lrq_out(rq_out);
  for (std::size_t m = 0; m < out_frames; ++m) {
    std::int64_t* const orow = data + m * C;
    const std::int64_t* const hrow = half_path + m * C;
    for (std::size_t c = 0; c < C; ++c) {
      orow[c] = lrq_prod(half_coeff * hrow[c]);
    }
    for (std::size_t i = 0; i < n1; ++i) {
      const std::int64_t coeff = f1[i];
      const std::int64_t* const brow = branches[i] + m * C;
      for (std::size_t c = 0; c < C; ++c) {
        orow[c] += lrq_prod(coeff * brow[c]);
      }
    }
    for (std::size_t c = 0; c < C; ++c) orow[c] = lrq_out(orow[c]);
  }
  lrq_prod.commit(t_prod);
  lrq_out.commit(t_out);
}

// W = 1: the 0.5 path first, then each f1 branch, output frames on the
// inside; per output the same product order as the W = 0 body.
template <>
void hbf_out_w<1>(std::int64_t* __restrict data,
                  const std::int64_t* __restrict half_path,
                  const std::int64_t* const* __restrict branches,
                  std::size_t n1, std::int64_t half_coeff,
                  const std::int64_t* __restrict f1, std::size_t out_frames,
                  std::size_t, const soa::Requant& rq_prod,
                  const soa::Requant& rq_out, soa::RequantTally& t_prod,
                  soa::RequantTally& t_out) {
  Rq lrq_prod(rq_prod);
  Rq lrq_out(rq_out);
  for (std::size_t m = 0; m < out_frames; ++m) {
    data[m] = lrq_prod(half_coeff * half_path[m]);
  }
  for (std::size_t i = 0; i < n1; ++i) {
    const std::int64_t coeff = f1[i];
    const std::int64_t* __restrict const b = branches[i];
    for (std::size_t m = 0; m < out_frames; ++m) {
      data[m] += lrq_prod(coeff * b[m]);
    }
  }
  for (std::size_t m = 0; m < out_frames; ++m) data[m] = lrq_out(data[m]);
  lrq_prod.commit(t_prod);
  lrq_out.commit(t_out);
}

// Table entries: pick the width-1 instantiation from C.
std::size_t cic_stage(std::int64_t* data, std::size_t frames, std::size_t C,
                      std::int64_t* integ, std::int64_t* comb,
                      std::size_t order, std::size_t skip, std::size_t decim,
                      soa::Wrap wrap) {
  return C == 1 ? cic_stage_w<1>(data, frames, C, integ, comb, order, skip,
                                 decim, wrap)
                : cic_stage_w<0>(data, frames, C, integ, comb, order, skip,
                                 decim, wrap);
}

std::size_t fir_emit(std::int64_t* data, const std::int64_t* ext,
                     std::size_t frames, std::size_t C,
                     const std::int64_t* taps, std::size_t tap_count,
                     std::size_t first, std::size_t decim, std::int64_t* acc,
                     const soa::Requant& rq, soa::RequantTally& tally) {
  return C == 1 ? fir_emit_w<1>(data, ext, frames, C, taps, tap_count, first,
                                decim, acc, rq, tally)
                : fir_emit_w<0>(data, ext, frames, C, taps, tap_count, first,
                                decim, acc, rq, tally);
}

void hbf_g2(std::int64_t* stream, const std::int64_t* ext, std::size_t frames,
            std::size_t C, const std::int64_t* f2, std::size_t n2,
            const soa::Requant& rq_prod, const soa::Requant& rq_int,
            soa::RequantTally& t_prod, soa::RequantTally& t_int) {
  if (C == 1) {
    hbf_g2_w<1>(stream, ext, frames, C, f2, n2, rq_prod, rq_int, t_prod,
                t_int);
  } else {
    hbf_g2_w<0>(stream, ext, frames, C, f2, n2, rq_prod, rq_int, t_prod,
                t_int);
  }
}

void hbf_out(std::int64_t* data, const std::int64_t* half_path,
             const std::int64_t* const* branches, std::size_t n1,
             std::int64_t half_coeff, const std::int64_t* f1,
             std::size_t out_frames, std::size_t C,
             const soa::Requant& rq_prod, const soa::Requant& rq_out,
             soa::RequantTally& t_prod, soa::RequantTally& t_out) {
  if (C == 1) {
    hbf_out_w<1>(data, half_path, branches, n1, half_coeff, f1, out_frames, C,
                 rq_prod, rq_out, t_prod, t_out);
  } else {
    hbf_out_w<0>(data, half_path, branches, n1, half_coeff, f1, out_frames, C,
                 rq_prod, rq_out, t_prod, t_out);
  }
}

void scaler_map(std::int64_t* __restrict data, std::size_t count,
                const fx::CsdDigit* __restrict digits, std::size_t n_digits,
                int frac_bits, const soa::Requant& rq,
                soa::RequantTally& tally) {
  Rq lrq(rq);
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t x = data[i];
    std::int64_t acc = 0;
    for (std::size_t d = 0; d < n_digits; ++d) {
      const int shift = digits[d].position + frac_bits;  // >= 0 by design
      const std::int64_t term = (shift >= 0) ? (x << shift) : (x >> -shift);
      acc += digits[d].sign > 0 ? term : -term;
    }
    data[i] = lrq(acc);
  }
  lrq.commit(tally);
}

void requant_rows(std::int64_t* __restrict data, std::size_t count,
                  const soa::Requant& rq, soa::RequantTally& tally) {
  Rq lrq(rq);
  for (std::size_t i = 0; i < count; ++i) data[i] = lrq(data[i]);
  lrq.commit(tally);
}

}  // namespace

// extern + initializer: namespace-scope const would otherwise get internal
// linkage and be invisible to the dispatcher in simd.cpp.
extern const BankKernels kTable;
const BankKernels kTable = {
    cic_stage, fir_emit, hbf_g2, hbf_out, scaler_map, requant_rows,
};

}  // namespace DSADC_SIMD_NS
}  // namespace dsadc::decim::simd
