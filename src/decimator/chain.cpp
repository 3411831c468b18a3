#include "src/decimator/chain.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "src/decimator/simd.h"
#include "src/dsp/freqz.h"
#include "src/filterdesign/equalizer.h"
#include "src/obs/metrics.h"
#include "src/obs/store/store.h"

namespace dsadc::decim {
namespace {

/// One block in N gets stage-boundary events when the trace store is on
/// (DSADC_STORE_STAGE_SAMPLE, default 8, minimum 1 = every block).
std::size_t stage_sample_period() {
  static const std::size_t period = [] {
    if (const char* v = std::getenv("DSADC_STORE_STAGE_SAMPLE")) {
      const long n = std::strtol(v, nullptr, 10);
      if (n >= 1) return static_cast<std::size_t>(n);
    }
    return std::size_t{8};
  }();
  return period;
}

}  // namespace

SignalStats signal_stats(std::span<const std::int64_t> samples,
                         int width_bits) {
  SignalStats st;
  if (samples.empty()) {
    st.peak_headroom_bits = width_bits - 1;
    return st;
  }
  st.min_raw = samples[0];
  st.max_raw = samples[0];
  double sumsq = 0.0;
  for (std::int64_t v : samples) {
    if (v < st.min_raw) st.min_raw = v;
    if (v > st.max_raw) st.max_raw = v;
    const double d = static_cast<double>(v);
    sumsq += d * d;
  }
  st.rms_raw = std::sqrt(sumsq / static_cast<double>(samples.size()));
  const std::uint64_t peak =
      static_cast<std::uint64_t>(std::max(st.max_raw, -st.min_raw));
  st.peak_headroom_bits =
      width_bits - 1 - static_cast<int>(std::bit_width(peak));
  return st;
}

void DecimationChain::record_stage(std::size_t idx,
                                   const std::vector<std::int64_t>& samples,
                                   std::vector<StageProbe>* probes,
                                   std::int64_t* stage_start_us) {
  Boundary& b = boundaries_[idx];
  const int width_bits = b.width_bits;
  const bool obs_on = obs::enabled();
  // The caller passes a non-null time cursor only for blocks selected by
  // the store's stage sampler (see process()).
  const bool store_on = stage_start_us != nullptr;
  const bool want_stats = probes != nullptr || obs_on;
  if (!want_stats && !store_on) return;
  SignalStats st;
  if (want_stats) {
    st = signal_stats(samples, width_bits);
  } else {
    // Store-only: the event carries just the headroom, which needs the
    // integer peak -- a vectorizable min/max pass, no RMS accumulation.
    std::int64_t mn = 0;
    std::int64_t mx = 0;
    for (std::int64_t v : samples) {
      if (v < mn) mn = v;
      if (v > mx) mx = v;
    }
    const auto peak = static_cast<std::uint64_t>(std::max(mx, -mn));
    st.peak_headroom_bits =
        width_bits - 1 - static_cast<int>(std::bit_width(peak));
  }
  if (store_on) {
    if (idx >= stage_ids_.size()) stage_ids_.resize(idx + 1, 0);
    if (stage_ids_[idx] == 0) {
      stage_ids_[idx] = obs::store::intern("stage." + b.name);
    }
    const std::int64_t now = obs::store::now_us();
    obs::store::Event e;
    e.category = obs::store::Category::kStage;
    e.name = stage_ids_[idx];
    e.ts_us = *stage_start_us;
    e.dur_us = now - *stage_start_us;
    e.stage = static_cast<std::uint32_t>(idx);
    e.value = st.peak_headroom_bits;
    e.aux = samples.size();
    stage_batch_.push_back(e);  // one emit_batch() at the end of the block
    *stage_start_us = now;
  }
  if (obs_on) {
    if (b.samples == nullptr) {
      auto& reg = obs::Registry::instance();
      b.min_raw = &reg.gauge("chain.min_raw." + b.name);
      b.max_raw = &reg.gauge("chain.max_raw." + b.name);
      b.rms_raw = &reg.gauge("chain.rms_raw." + b.name);
      b.peak_headroom_bits = &reg.gauge("chain.peak_headroom_bits." + b.name);
      b.samples = &reg.counter("chain.samples." + b.name);
    }
    b.min_raw->set(static_cast<double>(st.min_raw));
    b.max_raw->set(static_cast<double>(st.max_raw));
    b.rms_raw->set(st.rms_raw);
    b.peak_headroom_bits->set(st.peak_headroom_bits);
    b.samples->add(samples.size());
  }
  if (probes != nullptr) {
    if (idx >= probes->size()) probes->resize(idx + 1);
    StageProbe& p = (*probes)[idx];
    p.name = b.name;
    p.rate_hz = b.rate_hz;
    p.width_bits = width_bits;
    p.samples.assign(samples.begin(), samples.end());
    p.stats = st;
  }
}

double output_rate_hz(const ChainConfig& cfg) {
  std::size_t m = 2;  // the HBF
  for (const auto& s : cfg.cic_stages) {
    m *= static_cast<std::size_t>(s.decimation);
  }
  return cfg.input_rate_hz / static_cast<double>(m);
}

int cic_cascade_gain_log2(const ChainConfig& cfg) {
  double g = 0.0;
  for (const auto& s : cfg.cic_stages) {
    g += s.order * std::log2(static_cast<double>(s.decimation));
  }
  const int gi = static_cast<int>(std::lround(g));
  if (std::abs(g - gi) > 1e-9) {
    throw std::invalid_argument(
        "CIC cascade gain must be a power of two for shift normalization");
  }
  return gi;
}

ChainBank::ChainBank(const ChainConfig& config, std::size_t lanes)
    : lanes_(lanes),
      renorm_(cic_cascade_gain_log2(config), config.hbf_in_format,
              fx::Rounding::kRoundNearest,
              fx::event_counters("chain_hbf_in")),
      hbf_(config.hbf, lanes, config.hbf_in_format, config.hbf_out_format,
           config.hbf_coeff_frac_bits),
      scaler_(config.scale, config.hbf_out_format, config.scaler_out_format,
              /*frac_bits=*/14, /*max_digits=*/8),
      equalizer_(FixedTaps::from_real(config.equalizer_taps,
                                      config.equalizer_frac_bits),
                 /*decimation=*/1, lanes, config.scaler_out_format,
                 config.output_format) {
  if (config.cic_stages.empty()) {
    throw std::invalid_argument("ChainBank: no CIC stages");
  }
  // No requantizer reads the input format, so it gets the stage formats'
  // width rule here: outside [1, 62] it describes no code stream.
  if (config.input_format.width < 1 || config.input_format.width > 62) {
    throw std::invalid_argument("ChainBank: input width must be in [1, 62]");
  }
  cic_.reserve(config.cic_stages.size());
  for (const auto& spec : config.cic_stages) {
    cic_.emplace_back(spec, lanes);
  }
}

void ChainBank::reset() {
  for (auto& c : cic_) c.reset();
  hbf_.reset();
  equalizer_.reset();
}

void ChainBank::renormalize(std::vector<std::int64_t>& data) {
  // The CIC output in "code units" carries gain 2^gain_log2; treat it as
  // a fractional scale and round into hbf_in_format (a pure shift).
  soa::RequantTally tally;
  simd::kernels().requant_rows(data.data(), data.size(), renorm_, tally);
  tally.flush(renorm_);
}

void ChainBank::process_inplace(std::vector<std::int64_t>& data) {
  process_inplace(data, [](std::size_t, const std::vector<std::int64_t>&) {});
}

DecimationChain::DecimationChain(ChainConfig config)
    : config_(std::move(config)), bank_(config_, 1) {
  double rate = config_.input_rate_hz;
  boundaries_.push_back({"input", rate, config_.input_format.width});
  for (std::size_t i = 0; i < config_.cic_stages.size(); ++i) {
    const design::CicSpec& spec = config_.cic_stages[i];
    rate /= spec.decimation;
    boundaries_.push_back({"sinc" + std::to_string(spec.order) + "_" +
                               std::to_string(i + 1),
                           rate, spec.register_width()});
  }
  rate /= 2.0;
  boundaries_.push_back({"halfband", rate, config_.hbf_out_format.width});
  boundaries_.push_back({"scaler", rate, config_.scaler_out_format.width});
  boundaries_.push_back({"equalizer", rate, config_.output_format.width});
}

void DecimationChain::reset() { bank_.reset(); }

std::size_t DecimationChain::total_decimation() const {
  std::size_t m = 2;  // the HBF
  for (const auto& s : config_.cic_stages) {
    m *= static_cast<std::size_t>(s.decimation);
  }
  return m;
}

double DecimationChain::output_rate_hz() const {
  return decim::output_rate_hz(config_);
}

std::size_t DecimationChain::group_delay_input_samples() const {
  std::size_t d = 0;
  std::size_t rate = 1;
  for (const auto& s : config_.cic_stages) {
    // Sinc^K delay: K (M - 1) / 2 at its input rate.
    d += rate * static_cast<std::size_t>(s.order) *
         static_cast<std::size_t>(s.decimation - 1) / 2;
    rate *= static_cast<std::size_t>(s.decimation);
  }
  d += rate * bank_.hbf_group_delay();
  rate *= 2;
  d += rate * (config_.equalizer_taps.size() - 1) / 2;
  return d;
}

std::vector<std::int64_t> DecimationChain::process(
    std::span<const std::int32_t> codes, std::vector<StageProbe>* probes) {
  // Record stage events for one block in DSADC_STORE_STAGE_SAMPLE: per
  // block they cost a min/max pass plus a clock read per boundary, which
  // sampling keeps off the steady-state throughput path (<3% gate in CI)
  // while every chain instance still traces its first block.
  std::int64_t t_stage = 0;
  std::int64_t* stage_cursor = nullptr;
  if (obs::store::enabled() &&
      stage_seq_++ % stage_sample_period() == 0) {
    t_stage = obs::store::now_us();
    stage_cursor = &t_stage;
    stage_batch_.clear();
  }

  // Every inter-stage signal lives in the member scratch vector, so the
  // steady state allocates only the returned output vector.
  buf_.assign(codes.begin(), codes.end());
  record_stage(0, buf_, probes, stage_cursor);
  bank_.process_inplace(
      buf_, [&](std::size_t k, const std::vector<std::int64_t>& out) {
        record_stage(k + 1, out, probes, stage_cursor);
      });
  if (stage_cursor != nullptr && !stage_batch_.empty()) {
    obs::store::emit_batch(stage_batch_.data(), stage_batch_.size());
  }
  return std::vector<std::int64_t>(buf_.begin(), buf_.end());
}

std::vector<double> DecimationChain::process_to_real(
    std::span<const std::int32_t> codes) {
  const std::vector<std::int64_t> raw = process(codes);
  std::vector<double> out(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out[i] = fx::to_double(raw[i], config_.output_format);
  }
  return out;
}

ChainConfig paper_chain_config() {
  ChainConfig cfg;
  cfg.cic_stages = design::paper_sinc_cascade();
  cfg.hbf = design::design_saramaki_hbf(3, 6, 0.2125, 24, 0);

  // Scaler constant: the chain carries "code units" (mid-tread 4-bit codes,
  // |c| <= 7, signal amplitude MSA * 7). Peaks exceed the nominal MSA
  // amplitude by the residual shaped noise left after the halfband, so the
  // gain maps (MSA * 7 + 0.5) code units to just under full scale:
  //   S_total = headroom / (MSA * 7 + 0.5)
  const double msa = 0.81;
  cfg.scale = 0.98 / (msa * 7.0 + 0.5);

  // Equalizer: compensate the Sinc-cascade + HBF droop over the full
  // output band, referred to the 40 MHz output rate (f in cycles/sample).
  const auto cic_stages = cfg.cic_stages;
  const auto hbf_taps = cfg.hbf.taps;
  const auto droop = [cic_stages, hbf_taps](double f) {
    // f at 40 MHz; CIC stage i sees f / 2^(4-i)... compute explicitly:
    // input rates: 640, 320, 160 MHz; HBF at 80 MHz.
    double mag = 1.0;
    double rate_ratio = 16.0;  // 640/40
    for (const auto& s : cic_stages) {
      mag *= design::cic_magnitude(s, f / rate_ratio);
      rate_ratio /= s.decimation;
    }
    mag *= std::abs(dsp::fir_response_at(hbf_taps, f / rate_ratio));
    return mag;
  };
  const design::EqualizerResult eq =
      design::design_droop_equalizer(65, droop, 0.4999);
  cfg.equalizer_taps = eq.taps;
  return cfg;
}

}  // namespace dsadc::decim
