#include "src/decimator/hbf.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/decimator/simd.h"
#include "src/decimator/soa.h"

namespace dsadc::decim {

namespace hbf_detail {

HbfParams make_hbf_params(const design::SaramakiHbf& design, fx::Format in_fmt,
                          fx::Format out_fmt, int coeff_frac_bits,
                          int guard_frac_bits) {
  HbfParams p;
  p.coeff_frac = coeff_frac_bits;
  p.n1 = design.n1;
  p.n2 = design.n2;
  p.d2 = 2 * design.n2 - 1;
  p.big_d = (2 * design.n1 - 1) * p.d2;
  p.in_fmt = in_fmt;
  p.out_fmt = out_fmt;
  p.internal_fmt = fx::Format{in_fmt.width + 4 + guard_frac_bits,
                              in_fmt.frac + guard_frac_bits};
  p.prod_fmt = fx::Format{in_fmt.width + 7 + guard_frac_bits,
                          in_fmt.frac + guard_frac_bits + 2};
  // The stage indexes f1/f2 and sizes every delay line from n1/n2; a
  // design whose counts disagree with its CSD coefficients would read past
  // them (a CFG1 frame can carry any combination).
  if (design.n1 < 1 || design.n2 < 1 || design.f1_csd.size() != design.n1 ||
      design.f2_csd.size() != design.n2) {
    throw std::invalid_argument(
        "SaramakiHbf: need n1 == f1_csd.size() >= 1, n2 == f2_csd.size() >= 1");
  }
  if (p.internal_fmt.width > 62) {
    throw std::invalid_argument("SaramakiHbfDecimator: internal width > 62");
  }
  // Use the CSD-quantized coefficient values from the design: the datapath
  // must be bit-consistent with the shift-add network the RTL builds.
  // from_real refuses a coefficient scale the int64 taps cannot hold, and
  // its frac_bits range check must run before coeff_frac enters the int
  // sum of the product requantizer below (a CFG1 frame can carry any i32).
  std::vector<double> f2, f1;
  for (const auto& c : design.f2_csd) f2.push_back(c.to_double());
  for (const auto& c : design.f1_csd) f1.push_back(c.to_double());
  p.f2_coeffs = FixedTaps::from_real(f2, p.coeff_frac).taps;
  p.f1_coeffs = FixedTaps::from_real(f1, p.coeff_frac).taps;
  const double half = 0.5;
  p.half_coeff = FixedTaps::from_real({&half, 1}, p.coeff_frac).taps[0];
  p.rq_in = soa::Requant(in_fmt.frac, p.internal_fmt, fx::Rounding::kTruncate,
                         fx::event_counters("hbf_in"));
  p.rq_prod = soa::Requant(p.internal_fmt.frac + p.coeff_frac, p.prod_fmt,
                           fx::Rounding::kTruncate,
                           fx::event_counters("hbf_product"));
  p.rq_int = soa::Requant(p.prod_fmt.frac, p.internal_fmt,
                          fx::Rounding::kRoundNearest,
                          fx::event_counters("hbf_internal"));
  p.rq_out = soa::Requant(p.prod_fmt.frac, out_fmt,
                          fx::Rounding::kRoundNearest,
                          fx::event_counters("hbf_out"));
  // Each product is requantized on its own, so the int64 bound is per
  // product: a G2 tap multiplies a pre-added pair of internal-format
  // samples (one bit wider), an output tap one sample. The requantized
  // products then sum n2 (G2) or n1 + 1 (output) at a time.
  int widest = 0;
  for (const std::int64_t c : p.f2_coeffs) {
    widest = std::max(widest, mac_bits(p.internal_fmt.width + 1, {&c, 1}));
  }
  for (const std::int64_t c : p.f1_coeffs) {
    widest = std::max(widest, mac_bits(p.internal_fmt.width, {&c, 1}));
  }
  widest = std::max(widest,
                    mac_bits(p.internal_fmt.width, {&p.half_coeff, 1}));
  const auto terms = static_cast<std::int64_t>(std::max(p.n2, p.n1 + 1));
  widest = std::max(widest, mac_bits(p.prod_fmt.width, {&terms, 1}));
  if (widest > kMaxMacBits) {
    throw std::invalid_argument(
        "SaramakiHbfDecimator: product or sum would exceed 62 bits");
  }
  return p;
}

}  // namespace hbf_detail

SaramakiHbfDecimator::SaramakiHbfDecimator(const design::SaramakiHbf& design,
                                           fx::Format in_fmt,
                                           fx::Format out_fmt,
                                           int coeff_frac_bits,
                                           int guard_frac_bits)
    : p_(hbf_detail::make_hbf_params(design, in_fmt, out_fmt, coeff_frac_bits,
                                     guard_frac_bits)) {
  blocks_.resize(2 * p_.n1 - 1);
  for (auto& b : blocks_) b.hist.assign(2 * p_.n2, 0);
  odd_delay_.assign((p_.big_d + 1) / 2, 0);
  branch_delay_.resize(p_.n1 - 1);
  bpos_.assign(p_.n1 - 1, 0);
  for (std::size_t i = 1; i < p_.n1; ++i) {
    // A circular line of length L realizes a delay of exactly L samples
    // with the read-before-write access in push().
    branch_delay_[i - 1].assign((p_.big_d - (2 * i - 1) * p_.d2) / 2, 0);
  }
}

void SaramakiHbfDecimator::reset() {
  for (auto& b : blocks_) {
    std::fill(b.hist.begin(), b.hist.end(), 0);
    b.pos = 0;
  }
  std::fill(odd_delay_.begin(), odd_delay_.end(), 0);
  for (auto& d : branch_delay_) std::fill(d.begin(), d.end(), 0);
  std::fill(bpos_.begin(), bpos_.end(), 0);
  opos_ = 0;
  phase_ = 0;
}

std::size_t SaramakiHbfDecimator::macs_per_output() const {
  return (2 * p_.n1 - 1) * p_.n2 + p_.n1;  // G2 taps + outer taps
}

std::int64_t SaramakiHbfDecimator::G2Block::step(
    std::int64_t in, const std::vector<std::int64_t>& coeffs,
    const SaramakiHbfDecimator& owner) {
  hist[pos] = in;
  const std::size_t n = hist.size();  // 2*n2
  const std::size_t newest = pos;
  pos = (pos + 1) % n;
  // Symmetric even-length FIR: tap k pairs with tap (2*n2 - 1 - k); the
  // coefficient index is j - 1 with 2j - 1 = |2k - (2*n2 - 1)|.
  std::int64_t acc = 0;
  const std::size_t n2 = coeffs.size();
  for (std::size_t j = 1; j <= n2; ++j) {
    const std::size_t k_near = n2 - j;      // |2k - (2n2-1)| = 2j-1
    const std::size_t k_far = n2 + j - 1;
    const std::int64_t a = hist[(newest + n - k_near) % n];
    const std::int64_t b = hist[(newest + n - k_far) % n];
    acc += owner.requantize_product(coeffs[j - 1] * (a + b));
  }
  return acc;
}

std::int64_t SaramakiHbfDecimator::requantize_product(std::int64_t prod) const {
  // The power-optimized datapath drops product LSBs below a small guard
  // immediately after each CSD multiplier (frac: internal + coeff ->
  // product format), keeping the adder tree narrow.
  static const fx::EventCounters& ec = fx::event_counters("hbf_product");
  return fx::requantize(prod, p_.internal_fmt.frac + p_.coeff_frac, p_.prod_fmt,
                        fx::Rounding::kTruncate, fx::Overflow::kSaturate, &ec);
}

std::int64_t SaramakiHbfDecimator::requantize_internal(std::int64_t acc) const {
  // acc carries the product-format frac; bring back to internal.
  static const fx::EventCounters& ec = fx::event_counters("hbf_internal");
  return fx::requantize(acc, p_.prod_fmt.frac, p_.internal_fmt,
                        fx::Rounding::kRoundNearest, fx::Overflow::kSaturate,
                        &ec);
}

bool SaramakiHbfDecimator::push(std::int64_t in, std::int64_t& out) {
  // Promote the input into the internal guard format.
  static const fx::EventCounters& ec_in = fx::event_counters("hbf_in");
  const std::int64_t x =
      fx::requantize(in, p_.in_fmt.frac, p_.internal_fmt,
                     fx::Rounding::kTruncate, fx::Overflow::kSaturate, &ec_in);
  if (phase_ == 1) {
    // Odd-phase sample: enqueue into the 0.5-path delay line.
    odd_delay_[opos_] = x;
    opos_ = (opos_ + 1) % odd_delay_.size();
    phase_ = 0;
    return false;
  }
  phase_ = 1;

  // Even-phase sample: drive the G2 cascade (all at the output rate).
  std::vector<std::int64_t> odd_outputs(p_.n1, 0);
  std::int64_t cur = x;
  for (std::size_t k = 0; k < blocks_.size(); ++k) {
    cur = requantize_internal(blocks_[k].step(cur, p_.f2_coeffs, *this));
    if (k % 2 == 0) odd_outputs[k / 2] = cur;  // w_{k+1}, k+1 odd
  }
  // Branch alignment.
  std::vector<std::int64_t> aligned(p_.n1, 0);
  for (std::size_t i = 1; i < p_.n1; ++i) {
    auto& line = branch_delay_[i - 1];
    auto& p = bpos_[i - 1];
    const std::int64_t delayed = line[p];
    line[p] = odd_outputs[i - 1];
    p = (p + 1) % line.size();
    aligned[i - 1] = delayed;
  }
  aligned[p_.n1 - 1] = odd_outputs[p_.n1 - 1];

  // Output: 0.5 * x_odd[m - (D+1)/2] + sum_i f1_i w_i.
  const std::int64_t xd = odd_delay_[opos_];  // oldest = (D+1)/2 pushes ago
  std::int64_t acc = requantize_product(p_.half_coeff * xd);
  for (std::size_t i = 0; i < p_.n1; ++i) {
    acc += requantize_product(p_.f1_coeffs[i] * aligned[i]);
  }
  static const fx::EventCounters& ec_out = fx::event_counters("hbf_out");
  out = fx::requantize(acc, p_.prod_fmt.frac, p_.out_fmt,
                       fx::Rounding::kRoundNearest, fx::Overflow::kSaturate,
                       &ec_out);
  return true;
}

std::vector<std::int64_t> SaramakiHbfDecimator::process(
    std::span<const std::int64_t> in) {
  std::vector<std::int64_t> out;
  out.reserve(in.size() / 2 + 1);
  std::int64_t y = 0;
  for (const std::int64_t x : in) {
    if (push(x, y)) out.push_back(y);
  }
  return out;
}

SaramakiHbfBank::SaramakiHbfBank(const design::SaramakiHbf& design,
                                 std::size_t channels, fx::Format in_fmt,
                                 fx::Format out_fmt, int coeff_frac_bits,
                                 int guard_frac_bits)
    : p_(hbf_detail::make_hbf_params(design, in_fmt, out_fmt, coeff_frac_bits,
                                     guard_frac_bits)),
      channels_(channels) {
  if (channels_ == 0) {
    throw std::invalid_argument("SaramakiHbfBank: channels >= 1");
  }
  block_hist_.resize(2 * p_.n1 - 1);
  for (auto& h : block_hist_) h.assign(2 * p_.n2 * channels_, 0);
  odd_delay_.assign(((p_.big_d + 1) / 2) * channels_, 0);
  branch_delay_.resize(p_.n1 - 1);
  for (std::size_t i = 1; i < p_.n1; ++i) {
    branch_delay_[i - 1].assign(((p_.big_d - (2 * i - 1) * p_.d2) / 2) *
                                    channels_,
                                0);
  }
  branch_ext_.resize(p_.n1);
}

void SaramakiHbfBank::reset() {
  for (auto& h : block_hist_) std::fill(h.begin(), h.end(), 0);
  std::fill(odd_delay_.begin(), odd_delay_.end(), 0);
  for (auto& d : branch_delay_) std::fill(d.begin(), d.end(), 0);
  phase_ = 0;
}

namespace {

/// Concatenate `line` (a delay line, oldest row first) and `rows` into
/// `ext`, then keep the newest line-length rows of `ext` as the new line:
/// row m of `ext` is then row m of `rows` delayed by the line's length.
void delay_through(std::vector<std::int64_t>& line,
                   const std::vector<std::int64_t>& rows,
                   std::vector<std::int64_t>& ext) {
  ext.resize(line.size() + rows.size());
  std::copy(line.begin(), line.end(), ext.begin());
  std::copy(rows.begin(), rows.end(), ext.begin() + line.size());
  std::copy(ext.end() - line.size(), ext.end(), line.begin());
}

/// Rows first, first + 2, ... of `src` (`n` of them) into `dst`.
void take_every_other_row(const std::int64_t* src, std::size_t first,
                          std::size_t n, std::size_t C, std::int64_t* dst) {
  if (C == 1) {
    for (std::size_t m = 0; m < n; ++m) dst[m] = src[first + 2 * m];
    return;
  }
  for (std::size_t m = 0; m < n; ++m) {
    std::copy_n(src + (first + 2 * m) * C, C, dst + m * C);
  }
}

}  // namespace

void SaramakiHbfBank::g2_bank_pass(std::size_t block,
                                   std::vector<std::int64_t>& stream,
                                   soa::RequantTally& t_prod,
                                   soa::RequantTally& t_int) {
  // G2Block::step over a whole even-phase stream, every sample widened to
  // a row of C channels: the history plus the incoming rows are one
  // contiguous buffer, so every output row is a linear symmetric MAC. The
  // per-product requantize runs inline per lane in step()'s tap order,
  // with events tallied in bulk.
  delay_through(block_hist_[block], stream, g2_ext_);
  const std::size_t frames = stream.size() / channels_;
  simd::kernels().hbf_g2(stream.data(), g2_ext_.data(), frames, channels_,
                         p_.f2_coeffs.data(), p_.f2_coeffs.size(), p_.rq_prod,
                         p_.rq_int, t_prod, t_int);
}

void SaramakiHbfBank::process_inplace(std::vector<std::int64_t>& data) {
  const std::size_t C = channels_;
  if (data.size() % C != 0) {
    throw std::invalid_argument(
        "SaramakiHbfBank: data size not a multiple of channels");
  }
  const std::size_t frames = data.size() / C;

  // Batched polyphase form of push(). push() interleaves the two phases
  // sample by sample; here the block is split once and every branch runs
  // as a pass over rows at the output rate:
  //   A. promote + phase split; the odd rows go through the 0.5-path
  //      delay line;
  //   B. the G2 cascade, one g2_bank_pass per block, each odd cascade
  //      output through its branch-alignment delay line;
  //   C. the f1 output combination.
  // Every sample sees the identical operations in the identical order as
  // push(), so outputs, state, and fx event-counter totals all match; the
  // events are tallied per site and flushed once at the end of the block.
  soa::RequantTally t_in, t_prod, t_int, t_out;

  // --- A: promote into the guard format, then split the phases. Even
  // frames are those met at phase 0; a block that starts at phase 1
  // leads with an odd frame.
  simd::kernels().requant_rows(data.data(), data.size(), p_.rq_in, t_in);
  const auto lead = static_cast<std::size_t>(phase_);
  const std::size_t out_frames = (frames + 1 - lead) / 2;
  const std::size_t odd_frames = frames - out_frames;
  phase_ = static_cast<int>((lead + frames) % 2);
  even_scratch_.resize(out_frames * C);
  take_every_other_row(data.data(), lead, out_frames, C,
                       even_scratch_.data());
  // push() reads the 0.5-path line's oldest row at each even frame, before
  // the next odd row goes in: even frame m has m + lead odd rows of this
  // block ahead of it, so its row is row m + lead of [line | odd rows].
  const std::size_t line_rows = odd_delay_.size() / C;
  odd_ext_.resize((line_rows + odd_frames) * C);
  std::copy(odd_delay_.begin(), odd_delay_.end(), odd_ext_.begin());
  take_every_other_row(data.data(), 1 - lead, odd_frames, C,
                       odd_ext_.data() + line_rows * C);
  std::copy(odd_ext_.end() - static_cast<std::ptrdiff_t>(odd_delay_.size()),
            odd_ext_.end(), odd_delay_.begin());

  // --- B: G2 cascade over even rows; odd cascade output i (every other
  // block) runs through branch i's alignment delay (the last branch has
  // none).
  std::vector<std::int64_t>& cur = even_scratch_;
  for (std::size_t k = 0; k < block_hist_.size(); ++k) {
    g2_bank_pass(k, cur, t_prod, t_int);
    if (k % 2 != 0) continue;
    const std::size_t i = k / 2;
    if (i < branch_delay_.size()) {
      delay_through(branch_delay_[i], cur, branch_ext_[i]);
    } else {
      branch_ext_[i].assign(cur.begin(), cur.end());
    }
  }

  // --- C: 0.5 path + f1 taps; output rows overwrite `data`.
  data.resize(out_frames * C);
  branch_rows_.clear();
  for (const auto& b : branch_ext_) branch_rows_.push_back(b.data());
  simd::kernels().hbf_out(data.data(), odd_ext_.data() + lead * C,
                          branch_rows_.data(), p_.n1, p_.half_coeff,
                          p_.f1_coeffs.data(), out_frames, C, p_.rq_prod,
                          p_.rq_out, t_prod, t_out);
  t_in.flush(p_.rq_in);
  t_prod.flush(p_.rq_prod);
  t_int.flush(p_.rq_int);
  t_out.flush(p_.rq_out);
}

}  // namespace dsadc::decim
