#include "src/verify/diff.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/decimator/cic.h"
#include "src/decimator/fir.h"
#include "src/decimator/hbf.h"
#include "src/decimator/polyphase_cic.h"
#include "src/decimator/scaler.h"
#include "src/filterdesign/sharpened_cic.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rtl/builders.h"
#include "src/rtl/compiled_sim.h"
#include "src/verify/reference.h"

namespace dsadc::verify {
namespace {

// The compiled engine is bit-exact against the interpreted reference
// (tests/test_compiled_sim.cpp, lint_rtl --sim-crosscheck) and several
// times faster, which dominates the harness's wall-clock.
std::vector<std::int64_t> simulate(const rtl::BuiltStage& stage,
                                   std::span<const std::int64_t> in) {
  rtl::CompiledSimulator sim(stage.module);
  const auto res = sim.run({{stage.in, in}});
  return res.outputs.begin()->second;
}

/// Reference-vs-fixed bounded comparison; fills outcome on failure.
bool check_bounded(const std::vector<double>& ref,
                   const std::vector<std::int64_t>& fixed,
                   const fx::Format& out_fmt, double bound,
                   DiffOutcome& outcome) {
  const std::size_t n = std::min(ref.size(), fixed.size());
  if (ref.size() > fixed.size() + 1 || fixed.size() > ref.size() + 1) {
    outcome.ok = false;
    outcome.leg = "ref-vs-fixed";
    std::ostringstream os;
    os << "output length mismatch: reference " << ref.size() << " vs fixed "
       << fixed.size();
    outcome.detail = os.str();
    return false;
  }
  outcome.error_bound = bound;
  for (std::size_t i = 0; i < n; ++i) {
    const double got = fx::to_double(fixed[i], out_fmt);
    const double err = std::abs(ref[i] - got);
    outcome.max_ref_error = std::max(outcome.max_ref_error, err);
    if (err > bound) {
      outcome.ok = false;
      outcome.leg = "ref-vs-fixed";
      std::ostringstream os;
      os << "sample " << i << ": reference " << ref[i] << " vs fixed " << got
         << " (err " << err << " > bound " << bound << ")";
      outcome.detail = os.str();
      return false;
    }
  }
  return true;
}

/// RTL-vs-fixed bit comparison with lag scan; fills outcome on failure.
/// Too-short output streams are vacuously ok (nothing observable).
bool check_bit_exact(const std::vector<std::int64_t>& rtl,
                     const std::vector<std::int64_t>& fixed, int max_lag,
                     std::size_t settle, DiffOutcome& outcome) {
  // Vacuous when the overlap past the settling prefix cannot reach the
  // matcher's minimum comparison count (e.g. on heavily shrunk stimuli).
  constexpr std::size_t kMinCompared = 8;
  const std::size_t overlap = std::min(rtl.size(), fixed.size());
  if (overlap <= settle + kMinCompared + static_cast<std::size_t>(max_lag)) {
    return true;
  }
  if (matches_with_lag(rtl, fixed, max_lag, nullptr, settle)) return true;
  outcome.ok = false;
  outcome.leg = "rtl-vs-fixed";
  std::ostringstream os;
  os << "no bit-exact alignment within lag " << max_lag << " (settle "
     << settle << "); fixed[0.." << std::min<std::size_t>(4, fixed.size())
     << ")=";
  for (std::size_t i = settle; i < std::min(fixed.size(), settle + 4); ++i) {
    os << fixed[i] << " ";
  }
  os << "rtl=";
  for (std::size_t i = settle; i < std::min(rtl.size(), settle + 4); ++i) {
    os << rtl[i] << " ";
  }
  outcome.detail = os.str();
  return false;
}

DiffOutcome run_cic_family(const StageCase& c) {
  DiffOutcome out;
  const auto ref_model = make_reference_cic(c.cic);
  const auto ref = ref_model->process(c.stimulus);

  decim::CicDecimator hogenauer(c.cic);
  const auto fixed = hogenauer.process(c.stimulus);

  if (c.kind == StageKind::kPolyphaseCic) {
    decim::PolyphaseCicDecimator poly(c.cic);
    const auto pfixed = poly.process(c.stimulus);
    if (pfixed != fixed) {
      out.ok = false;
      out.leg = "rtl-vs-fixed";
      out.detail = "polyphase CIC diverges from the Hogenauer stream";
      return out;
    }
  }

  const auto rtl_out = simulate(rtl::build_cic(c.cic), c.stimulus);
  if (!check_bit_exact(rtl_out, fixed, /*max_lag=*/4, /*settle=*/4, out)) {
    return out;
  }
  check_bounded(ref, fixed, ref_model->output_format(),
                ref_model->error_bound(), out);
  return out;
}

DiffOutcome run_sharpened_cic(const StageCase& c) {
  DiffOutcome out;
  const auto ref_model = make_reference_sharpened_cic(c.cic);
  const fx::Format in_fmt{c.cic.input_bits, 0};
  const fx::Format out_fmt = ref_model->output_format();
  const auto itaps =
      design::sharpened_cic_taps(c.cic.order, c.cic.decimation);
  decim::FixedTaps taps{itaps, /*frac_bits=*/0};

  decim::FirDecimator fixed_impl(taps, c.cic.decimation, in_fmt, out_fmt);
  const auto fixed = fixed_impl.process(c.stimulus);

  // The RTL leg runs the symmetric-FIR netlist at the full rate; the
  // harness decimates after the bit comparison (a decimate-by-M of a
  // bit-exact stream is bit-exact).
  decim::FirDecimator full_rate(taps, 1, in_fmt, out_fmt);
  const auto fixed_full = full_rate.process(c.stimulus);
  const std::vector<double> real_taps(itaps.begin(), itaps.end());
  const auto rtl_out = simulate(
      rtl::build_symmetric_fir(real_taps, 0, in_fmt, out_fmt, 1), c.stimulus);
  if (!check_bit_exact(rtl_out, fixed_full, /*max_lag=*/2, /*settle=*/4, out)) {
    return out;
  }

  const auto ref = ref_model->process(c.stimulus);
  check_bounded(ref, fixed, out_fmt, ref_model->error_bound(), out);
  return out;
}

DiffOutcome run_hbf(const StageCase& c) {
  DiffOutcome out;
  const design::SaramakiHbf& d =
      cached_hbf_design(c.hbf.n1, c.hbf.n2, c.hbf.fp, c.hbf.coeff_frac_bits);
  const auto ref_model =
      make_reference_hbf(d, c.hbf.in_fmt, c.hbf.out_fmt, c.hbf.coeff_frac_bits,
                         c.hbf.guard_frac_bits);

  decim::SaramakiHbfDecimator impl(d, c.hbf.in_fmt, c.hbf.out_fmt,
                                   c.hbf.coeff_frac_bits,
                                   c.hbf.guard_frac_bits);
  const auto fixed = impl.process(c.stimulus);

  const auto rtl_out = simulate(
      rtl::build_saramaki_hbf(d, c.hbf.in_fmt, c.hbf.out_fmt,
                              c.hbf.coeff_frac_bits, c.hbf.guard_frac_bits, 1),
      c.stimulus);
  // The RTL decimator may land on the other polyphase parity: retry the
  // behavioral model on the one-sample-delayed input before failing.
  if (fixed.size() > 6 && !matches_with_lag(rtl_out, fixed, 60)) {
    std::vector<std::int64_t> shifted(c.stimulus.size(), 0);
    for (std::size_t i = 1; i < shifted.size(); ++i) {
      shifted[i] = c.stimulus[i - 1];
    }
    decim::SaramakiHbfDecimator impl2(d, c.hbf.in_fmt, c.hbf.out_fmt,
                                      c.hbf.coeff_frac_bits,
                                      c.hbf.guard_frac_bits);
    const auto fixed2 = impl2.process(shifted);
    if (!check_bit_exact(rtl_out, fixed2, /*max_lag=*/60, /*settle=*/4, out)) {
      return out;
    }
  }

  const auto ref = ref_model->process(c.stimulus);
  check_bounded(ref, fixed, c.hbf.out_fmt, ref_model->error_bound(), out);
  return out;
}

DiffOutcome run_scaler(const StageCase& c) {
  DiffOutcome out;
  decim::ScalingStage impl(c.scaler.scale, c.scaler.in_fmt, c.scaler.out_fmt,
                           c.scaler.frac_bits, c.scaler.max_digits);
  const auto ref_model = make_reference_scaler(
      impl.effective_scale(), c.scaler.in_fmt, c.scaler.out_fmt);
  const auto fixed = impl.process(c.stimulus);

  const auto rtl_out = simulate(
      rtl::build_scaler(impl.csd(), c.scaler.frac_bits, c.scaler.in_fmt,
                        c.scaler.out_fmt, 1),
      c.stimulus);
  if (!check_bit_exact(rtl_out, fixed, /*max_lag=*/1, /*settle=*/0, out)) {
    return out;
  }

  const auto ref = ref_model->process(c.stimulus);
  check_bounded(ref, fixed, c.scaler.out_fmt, ref_model->error_bound(), out);
  return out;
}

DiffOutcome run_fir(const StageCase& c) {
  DiffOutcome out;
  const auto taps = decim::FixedTaps::from_real(c.fir.taps, c.fir.frac_bits);
  const auto ref_model =
      make_reference_fir(taps, 1, c.fir.in_fmt, c.fir.out_fmt);
  decim::FirDecimator impl(taps, 1, c.fir.in_fmt, c.fir.out_fmt);
  const auto fixed = impl.process(c.stimulus);

  const auto rtl_out = simulate(
      rtl::build_symmetric_fir(c.fir.taps, c.fir.frac_bits, c.fir.in_fmt,
                               c.fir.out_fmt, 1),
      c.stimulus);
  if (!check_bit_exact(rtl_out, fixed, /*max_lag=*/2, /*settle=*/4, out)) {
    return out;
  }

  const auto ref = ref_model->process(c.stimulus);
  check_bounded(ref, fixed, c.fir.out_fmt, ref_model->error_bound(), out);
  return out;
}

DiffOutcome run_chain(const StageCase& c) {
  DiffOutcome out;
  const decim::ChainConfig cfg = make_chain_config(c.chain);
  const auto ref_model = make_reference_chain(cfg);

  std::vector<std::int32_t> codes(c.stimulus.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(c.stimulus[i]);
  }
  decim::DecimationChain chain(cfg);
  const auto fixed = chain.process(codes);

  const rtl::BuiltChain built = rtl::build_chain(cfg);
  rtl::CompiledSimulator sim(built.full);
  const auto res = sim.run({{built.in, c.stimulus}});
  const auto& rtl_out = res.outputs.begin()->second;

  // Cascaded rate boundaries give the netlist a fixed input-side delay;
  // for decimators that is a polyphase offset, so scan small input shifts
  // of the behavioral chain (as the legacy end-to-end test does).
  bool bit_ok = fixed.size() <= 40;  // vacuous when nothing observable
  for (int shift = 0; shift < 16 && !bit_ok; ++shift) {
    std::vector<std::int32_t> shifted(codes.size(), 0);
    for (std::size_t i = static_cast<std::size_t>(shift); i < shifted.size();
         ++i) {
      shifted[i] = codes[i - shift];
    }
    decim::DecimationChain chain2(cfg);
    const auto ref2 = chain2.process(shifted);
    bit_ok = matches_with_lag(rtl_out, ref2, 8, nullptr, /*settle=*/32);
  }
  if (!bit_ok) {
    out.ok = false;
    out.leg = "rtl-vs-fixed";
    out.detail = "no polyphase shift/lag aligns the chain netlist with the "
                 "behavioral chain";
    return out;
  }

  const auto ref = ref_model->process(c.stimulus);
  check_bounded(ref, fixed, cfg.output_format, ref_model->error_bound(), out);
  return out;
}

}  // namespace

bool matches_with_lag(const std::vector<std::int64_t>& rtl,
                      const std::vector<std::int64_t>& fixed, int max_lag,
                      int* found_lag, std::size_t settle,
                      std::size_t min_compared) {
  for (int lag = 0; lag <= max_lag; ++lag) {
    bool ok = true;
    std::size_t compared = 0;
    for (std::size_t i = settle;
         i + static_cast<std::size_t>(lag) < rtl.size() && i < fixed.size();
         ++i) {
      if (rtl[i + static_cast<std::size_t>(lag)] != fixed[i]) {
        ok = false;
        break;
      }
      ++compared;
    }
    if (ok && compared >= min_compared) {
      if (found_lag != nullptr) *found_lag = lag;
      return true;
    }
  }
  return false;
}

DiffOutcome run_case(const StageCase& c) {
  obs::Span span(std::string("case_") + stage_kind_name(c.kind));
  DSADC_OBS_COUNT("verify.cases");
  try {
    switch (c.kind) {
      case StageKind::kCic:
      case StageKind::kPolyphaseCic:
        return run_cic_family(c);
      case StageKind::kSharpenedCic:
        return run_sharpened_cic(c);
      case StageKind::kHbf:
        return run_hbf(c);
      case StageKind::kScaler:
        return run_scaler(c);
      case StageKind::kFir:
        return run_fir(c);
      case StageKind::kChain:
        return run_chain(c);
    }
  } catch (const std::exception& e) {
    DiffOutcome out;
    out.ok = false;
    out.leg = "exception";
    out.detail = e.what();
    return out;
  }
  DiffOutcome out;
  out.ok = false;
  out.leg = "exception";
  out.detail = "unknown stage kind";
  return out;
}

}  // namespace dsadc::verify
