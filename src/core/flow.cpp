#include "src/core/flow.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/core/response.h"
#include "src/dsp/freqz.h"
#include "src/dsp/parallel.h"
#include "src/dsp/spectrum.h"
#include "src/filterdesign/cic.h"
#include "src/filterdesign/equalizer.h"
#include "src/obs/trace.h"
#include "src/rtl/verilog.h"

namespace dsadc::core {
namespace {

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Step 1: the modulator model. Writes only the modulator fields of `r`.
void design_modulator(const mod::ModulatorSpec& mspec,
                      const FlowOptions& options, FlowResult& r) {
  r.ntf = mod::synthesize_ntf(mspec.order, mspec.osr, mspec.obg, true);
  {
    DSADC_TRACE_SPAN("realize_and_msa");
    r.ciff = mod::realize_ciff(r.ntf);
    r.msa = options.measure_msa
                ? mod::find_msa(r.ciff, mspec.quantizer_bits, mspec.osr)
                : mspec.msa;
  }
  r.predicted_sqnr_db =
      mod::predict_sqnr_db(r.ntf, mspec.osr, mspec.quantizer_bits, r.msa);
}

/// Steps 2 and 3: the Sinc cascade and the halfband, which do not depend
/// on the modulator model.
decim::ChainConfig design_structure(const mod::ModulatorSpec& mspec,
                                    const mod::DecimatorSpec& dspec,
                                    const FlowOptions& options) {
  // --- Step 2: decimation structure. OSR = 2^n: (n-1) Sinc /2 stages, one
  // halfband /2 stage.
  const auto osr = static_cast<std::size_t>(mspec.osr);
  if (!is_pow2(osr) || osr < 4) {
    throw std::invalid_argument(
        "DesignFlow: OSR must be a power of two >= 4 for the /2-stage "
        "architecture");
  }
  std::size_t n_cic = 0;
  for (std::size_t v = osr / 2; v > 1; v /= 2) ++n_cic;

  std::vector<int> orders = options.cic_orders;
  if (orders.empty()) {
    // Paper heuristic: L-1 for the early stages (later stages re-filter
    // their alias bands), L+1 for the last Sinc stage, which faces the
    // full L-th-order shaped noise at the lowest rate.
    orders.assign(n_cic, mspec.order - 1);
    orders.back() = mspec.order + 1;
  }
  if (orders.size() != n_cic) {
    throw std::invalid_argument("DesignFlow: cic_orders size mismatch");
  }

  decim::ChainConfig cfg;
  cfg.input_rate_hz = mspec.sample_rate_hz;
  cfg.input_format = fx::Format{mspec.quantizer_bits, 0};
  int bits = mspec.quantizer_bits;
  int gain_log2 = 0;
  for (std::size_t i = 0; i < n_cic; ++i) {
    design::CicSpec s{orders[i], 2, bits};
    cfg.cic_stages.push_back(s);
    bits = s.register_width();
    gain_log2 += s.order;
  }
  // HBF input: relabel the CIC gain as fractional weight (lossless).
  cfg.hbf_in_format = fx::Format{bits, gain_log2};
  cfg.hbf_out_format = cfg.hbf_in_format;
  cfg.hbf_coeff_frac_bits = options.hbf_coeff_frac_bits;

  // --- Step 3: halfband design. Its stopband edge must sit at the spec's
  // stopband edge referred to the HBF rate (2x output rate).
  const double hbf_rate = 2.0 * dspec.output_rate_hz;
  const double fstop_hb = dspec.stopband_edge_hz / hbf_rate;
  const double fp = 0.5 - fstop_hb;
  if (!(fp > 0.0 && fp < 0.25)) {
    throw std::invalid_argument("DesignFlow: stopband edge incompatible with "
                                "a halfband final stage");
  }
  cfg.hbf = (options.hbf_n1 != 0 && options.hbf_n2 != 0)
                ? design::design_saramaki_hbf(options.hbf_n1, options.hbf_n2,
                                              fp, options.hbf_coeff_frac_bits)
                : design::design_saramaki_hbf_auto(
                      fp, options.hbf_atten_target_db,
                      options.hbf_coeff_frac_bits);
  return cfg;
}

/// The scaler (the one step that needs the MSA), the equalizer loop and
/// the step-4 stopband check. Writes only the chain and check fields of
/// `r`.
void design_scaler_and_equalizer(decim::ChainConfig cfg, double msa,
                                 const mod::ModulatorSpec& mspec,
                                 const mod::DecimatorSpec& dspec,
                                 const FlowOptions& options, FlowResult& r) {
  // --- Scaler: map (MSA * code_max + noise margin) to just under +-1.
  const int code_max = (1 << (mspec.quantizer_bits - 1)) - 1;
  cfg.scale = 0.98 / (msa * static_cast<double>(code_max) + 0.5);

  // --- Equalizer: invert the composite pre-equalizer droop.
  const auto cic_stages = cfg.cic_stages;
  const auto hbf_taps = cfg.hbf.taps;
  const auto total_ratio =
      static_cast<double>(static_cast<std::size_t>(mspec.osr));
  const auto droop = [cic_stages, hbf_taps, total_ratio](double f) {
    double mag = 1.0;
    double ratio = total_ratio;
    for (const auto& s : cic_stages) {
      mag *= design::cic_magnitude(s, f / ratio);
      ratio /= s.decimation;
    }
    mag *= std::abs(dsp::fir_response_at(hbf_taps, f / ratio));
    return mag;
  };
  // The flow grows the equalizer if the requested length cannot meet the
  // ripple spec (full-droop compensation up to the output Nyquist edge is
  // a steep target: the HBF alone is -6 dB at exactly fout/2).
  {
    DSADC_TRACE_SPAN("equalizer_design");  // the loop only, not step 4
    std::size_t eq_taps = options.equalizer_taps;
    for (;;) {
      const design::EqualizerResult eq =
          design::design_droop_equalizer(eq_taps, droop, 0.4999);
      cfg.equalizer_taps = eq.taps;
      r.chain = cfg;
      r.passband_ripple_db = composite_passband_ripple_db(
          cfg, 0.05 * dspec.passband_edge_hz, dspec.passband_edge_hz);
      r.ripple_ok = r.passband_ripple_db <= dspec.passband_ripple_db;
      if (r.ripple_ok || !options.adapt_equalizer || eq_taps >= 161) break;
      eq_taps += 16;
    }
  }

  // --- Step 4: stopband check over the primary image band.
  r.alias_protection_db =
      composite_stopband_atten_db(cfg, dspec.stopband_edge_hz);
  r.attenuation_ok = r.alias_protection_db >= dspec.stopband_atten_db;
}

}  // namespace

FlowResult DesignFlow::design(const mod::ModulatorSpec& mspec,
                              const mod::DecimatorSpec& dspec,
                              const FlowOptions& options) {
  DSADC_TRACE_SPAN("design_flow");
  FlowResult r;
  r.modulator_spec = mspec;
  r.decimator_spec = dspec;
  r.options = options;

  // Two independent branches: the modulator model (index 0) and the
  // filters (index 1). Each writes its own fields of `r`. The scaler is
  // the only filter step that needs the MSA; unless the MSA is measured,
  // it is the spec value, so the filter branch runs to the end and the
  // branches join here. A measured MSA moves the join before the scaler.
  // parallel_for_index rethrows the lower index's exception, so a step-1
  // error wins over a filter error, as in a serial run.
  const bool msa_known = !options.measure_msa;
  decim::ChainConfig structure;
  dsp::parallel_for_index(2, [&](std::size_t branch) {
    if (branch == 0) {
      design_modulator(mspec, options, r);
      return;
    }
    structure = design_structure(mspec, dspec, options);
    if (msa_known) {
      design_scaler_and_equalizer(structure, mspec.msa, mspec, dspec,
                                  options, r);
    }
  });
  if (!msa_known) {
    design_scaler_and_equalizer(structure, r.msa, mspec, dspec, options, r);
  }
  return r;
}

VerificationResult DesignFlow::verify(const FlowResult& result,
                                      double tone_freq_hz,
                                      std::size_t run_length) {
  DSADC_TRACE_SPAN("flow_verify");
  VerificationResult v;
  const auto& mspec = result.modulator_spec;
  double factual = tone_freq_hz;
  const std::vector<double> u =
      mod::coherent_sine(run_length, tone_freq_hz, mspec.sample_rate_hz,
                         result.msa, &factual);
  v.tone_freq_hz = factual;
  mod::CiffModulator modulator(result.ciff, mspec.quantizer_bits);
  const mod::DsmOutput dsm = modulator.run(u);
  if (!dsm.stable) {
    throw std::runtime_error("DesignFlow::verify: modulator unstable at MSA");
  }

  const auto measure = [&](const decim::ChainConfig& cfg) {
    decim::DecimationChain chain(cfg);
    const std::vector<std::int64_t> raw = chain.process(dsm.codes);
    std::vector<double> x;
    x.reserve(raw.size());
    for (std::size_t i = 512; i < raw.size(); ++i) {
      x.push_back(fx::to_double(raw[i], cfg.output_format));
    }
    return dsp::measure_tone_snr(x, chain.output_rate_hz(),
                                 result.decimator_spec.passband_edge_hz,
                                 dsp::WindowKind::kKaiser, 8, 8, 22.0);
  };

  // The quantized chain (index 0) and the wide-output chain (index 1) are
  // measured concurrently.
  decim::ChainConfig wide = result.chain;
  wide.output_format = fx::Format{20, 18};
  wide.scaler_out_format = fx::Format{22, 19};
  dsp::SnrResult snr[2];
  dsp::parallel_for_index(2, [&](std::size_t i) {
    snr[i] = measure(i == 0 ? result.chain : wide);
  });
  v.snr_db = snr[0].snr_db;
  v.enob_bits = snr[0].enob_bits;
  v.snr_unquantized_db = snr[1].snr_db;
  v.snr_ok = v.snr_unquantized_db >= result.decimator_spec.target_snr_db;
  return v;
}

RtlArtifacts DesignFlow::generate_rtl(const FlowResult& result) {
  DSADC_TRACE_SPAN("rtl_elaborate");
  RtlArtifacts art;
  const rtl::BuiltChain built =
      rtl::build_chain(result.chain, result.options.rtl_options);
  for (std::size_t i = 0; i < built.stages.size(); ++i) {
    art.verilog[built.stage_names[i]] =
        rtl::emit_verilog(built.stages[i].module);
  }
  art.full_chain_verilog = rtl::emit_verilog(built.full);
  art.testbench = rtl::emit_testbench(built.full);
  return art;
}

synth::PowerProfile DesignFlow::synthesize(const FlowResult& result,
                                           double tone_freq_hz,
                                           std::size_t run_length,
                                           const synth::CellLibrary& lib) {
  DSADC_TRACE_SPAN("synthesize");
  const auto& mspec = result.modulator_spec;
  const std::vector<double> u = mod::coherent_sine(
      run_length, tone_freq_hz, mspec.sample_rate_hz, result.msa, nullptr);
  mod::CiffModulator modulator(result.ciff, mspec.quantizer_bits);
  const mod::DsmOutput dsm = modulator.run(u);
  return synth::profile_chain(result.chain, dsm.codes, mspec.sample_rate_hz,
                              lib, result.options.rtl_options);
}

std::string flow_report(const FlowResult& r) {
  std::ostringstream os;
  os << "=== Decimation filter design flow report ===\n";
  os << "Modulator: order " << r.modulator_spec.order << ", OSR "
     << r.modulator_spec.osr << ", OBG " << r.modulator_spec.obg << ", fs "
     << r.modulator_spec.sample_rate_hz / 1e6 << " MHz, "
     << r.modulator_spec.quantizer_bits << "-bit quantizer\n";
  os << "  NTF Hinf: " << r.ntf.infinity_norm() << ", predicted SQNR at MSA: "
     << r.predicted_sqnr_db << " dB, MSA: " << r.msa << "\n";
  os << "Chain: ";
  for (const auto& s : r.chain.cic_stages) {
    os << "Sinc" << s.order << "(/2) -> ";
  }
  os << "HBF(n1=" << r.chain.hbf.n1 << ", n2=" << r.chain.hbf.n2
     << ", order " << r.chain.hbf.order() << ", "
     << r.chain.hbf.stopband_atten_db << " dB, " << r.chain.hbf.adder_count
     << " adders) -> scale(" << r.chain.scale << ") -> EQ("
     << r.chain.equalizer_taps.size() << " taps)\n";
  os << "Checks: passband ripple " << r.passband_ripple_db << " dB ("
     << (r.ripple_ok ? "OK" : "FAIL") << "), alias protection "
     << r.alias_protection_db << " dB ("
     << (r.attenuation_ok ? "OK" : "FAIL") << ")\n";
  return os.str();
}

}  // namespace dsadc::core
