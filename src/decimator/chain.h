// The assembled decimation filter chain (Fig. 5 of the paper):
//
//   4-bit codes @ fs -> Sinc4(/2) -> Sinc4(/2) -> Sinc6(/2)
//                    -> Saramaki HBF(/2) -> Scaling -> FIR equalizer
//                    -> 14-bit samples @ fs/16
//
// All stages are bit-true fixed point. ChainBank is the one block form of
// the chain: every stage's SoA bank over N lockstep lanes. DecimationChain
// is a 1-lane ChainBank plus per-stage intermediate outputs ("probes") so
// the benches and the power estimator can observe switching activity at
// every node, like the paper's PrimeTime-PX stimulus-driven estimation.
// The stages' push() methods stay the readable reference model the tests,
// the RTL builders and the verify harness compare against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/decimator/cic.h"
#include "src/decimator/fir.h"
#include "src/decimator/hbf.h"
#include "src/decimator/scaler.h"
#include "src/decimator/soa.h"
#include "src/filterdesign/saramaki.h"
#include "src/obs/store/format.h"

namespace dsadc::obs {
class Counter;
class Gauge;
}  // namespace dsadc::obs

namespace dsadc::decim {

/// Everything needed to instantiate the chain; produced by the design flow
/// in src/core (or hand-built for custom configurations).
struct ChainConfig {
  std::vector<design::CicSpec> cic_stages;   ///< e.g. Sinc4, Sinc4, Sinc6
  design::SaramakiHbf hbf;                   ///< designed halfband
  double scale = 1.0825 * 2.0 / 15.0;        ///< scaler constant (see below)
  std::vector<double> equalizer_taps;        ///< symmetric FIR at out rate
  int equalizer_frac_bits = 14;              ///< equalizer coeff precision
  int hbf_coeff_frac_bits = 24;              ///< the paper's 24-bit coeffs

  fx::Format input_format{4, 0};     ///< modulator codes
  /// The Sinc6 output is 18 bits; relabeling its 2^14 DC gain as
  /// fractional weight is lossless, so the HBF sees full precision.
  fx::Format hbf_in_format{18, 14};
  fx::Format hbf_out_format{18, 14};
  /// Intermediate format between scaler and equalizer: two extra LSBs so
  /// the output is rounded to 14 bits exactly once, at the equalizer.
  fx::Format scaler_out_format{18, 15};
  fx::Format output_format{14, 13};  ///< 14-bit ADC output, +-1 range

  double input_rate_hz = 640e6;
};

/// Output sample rate of the chain `cfg` describes: the input rate over
/// the total decimation (every Sinc stage's factor, times 2 for the HBF).
double output_rate_hz(const ChainConfig& cfg);

/// log2 of the Sinc cascade's DC gain (sum of order * log2(decimation)).
/// The gain must be a power of two so the renormalization into the HBF
/// format is a pure shift; throws std::invalid_argument otherwise.
int cic_cascade_gain_log2(const ChainConfig& cfg);

/// Signal statistics over one block at a stage boundary, in raw LSB units
/// of that stage's register format.
struct SignalStats {
  std::int64_t min_raw = 0;
  std::int64_t max_raw = 0;
  double rms_raw = 0.0;        ///< sqrt(mean(raw^2))
  /// Unused MSBs at the observed peak: (width - 1) - bits(peak). The
  /// margin Hogenauer's Bmax rule leaves; 0 means the register was fully
  /// exercised, negative values cannot occur for in-range samples.
  int peak_headroom_bits = 0;
};

/// Compute SignalStats for raw samples carried in a `width_bits` register.
SignalStats signal_stats(std::span<const std::int64_t> samples,
                         int width_bits);

/// Per-stage probe record for one processed block.
struct StageProbe {
  std::string name;
  double rate_hz = 0.0;          ///< clock rate of this stage's output
  int width_bits = 0;            ///< register width at this stage
  std::vector<std::int64_t> samples;
  SignalStats stats;             ///< boundary statistics for this block
};

/// An N-lane lockstep decimation chain over channel-interleaved frames
/// (element index = frame * lanes + lane): the bank form of every stage
/// plus the CIC-gain renormalization between the Sinc cascade and the
/// halfband. Lane c is bit-identical to the stages' push() references fed
/// the same codes, samples and fx event counters alike.
class ChainBank {
 public:
  ChainBank(const ChainConfig& config, std::size_t lanes);

  /// `data` holds modulator codes as channel-interleaved frames on entry
  /// (size a multiple of `lanes`) and output-format samples on return.
  void process_inplace(std::vector<std::int64_t>& data);

  /// Same, calling `at_stage(k, data)` after stage k: the CIC stages are
  /// k = 0 .. n-1, then the halfband (n), scaler (n + 1) and equalizer
  /// (n + 2). The renormalization has no boundary of its own.
  template <class AtStage>
  void process_inplace(std::vector<std::int64_t>& data, AtStage&& at_stage);

  void reset();

  std::size_t lanes() const { return lanes_; }
  /// Halfband group delay in halfband input samples.
  std::size_t hbf_group_delay() const { return hbf_.group_delay(); }

 private:
  void renormalize(std::vector<std::int64_t>& data);

  std::size_t lanes_;
  std::vector<CicDecimatorBank> cic_;
  soa::Requant renorm_;  ///< CIC gain shift into the HBF format
  SaramakiHbfBank hbf_;
  ScalingStage scaler_;
  FirDecimatorBank equalizer_;
};

template <class AtStage>
void ChainBank::process_inplace(std::vector<std::int64_t>& data,
                                AtStage&& at_stage) {
  std::size_t k = 0;
  for (auto& c : cic_) {
    c.process_inplace(data);
    at_stage(k++, data);
  }
  renormalize(data);
  hbf_.process_inplace(data);
  at_stage(k++, data);
  scaler_.process_inplace(data);
  at_stage(k++, data);
  equalizer_.process_inplace(data);
  at_stage(k, data);
}

/// The chain over one stream: a 1-lane ChainBank plus stage probes,
/// observability gauges and trace-store stage events.
class DecimationChain {
 public:
  explicit DecimationChain(ChainConfig config);

  /// Process a block of modulator codes; returns 14-bit output samples
  /// (raw integers in output_format). When `probes` is non-null, the
  /// intermediate signal at every stage boundary is recorded.
  std::vector<std::int64_t> process(std::span<const std::int32_t> codes,
                                    std::vector<StageProbe>* probes = nullptr);

  /// Output samples as real values in [-1, 1).
  std::vector<double> process_to_real(std::span<const std::int32_t> codes);

  void reset();

  const ChainConfig& config() const { return config_; }
  std::size_t total_decimation() const;
  double output_rate_hz() const;
  /// Total pipeline latency in input samples (sum of group delays).
  std::size_t group_delay_input_samples() const;

 private:
  /// Name, clock rate and register width of one probe point, plus its
  /// chain.<metric>.<name> registry instruments. Those are resolved on the
  /// first block recorded with observability on (registry instruments
  /// never move), so an obs-off chain never touches the registry.
  struct Boundary {
    std::string name;
    double rate_hz = 0.0;
    int width_bits = 0;
    obs::Gauge* min_raw = nullptr;
    obs::Gauge* max_raw = nullptr;
    obs::Gauge* rms_raw = nullptr;
    obs::Gauge* peak_headroom_bits = nullptr;
    obs::Counter* samples = nullptr;
  };

  /// Record boundary `idx` (0 = input, then one per ChainBank stage):
  /// probe capture (when requested) plus, while observability is on,
  /// chain.<metric>.<stage> gauges/counters in the metrics registry, and,
  /// while the trace store is open, one kStage event spanning
  /// [*stage_start_us, now] (the cursor is then advanced to now, so
  /// consecutive boundaries partition the block's wall time). Probe slot
  /// `idx` is overwritten in place when the caller reuses a probes vector
  /// across blocks, so steady-state probing reuses the sample buffers
  /// instead of reallocating them.
  void record_stage(std::size_t idx, const std::vector<std::int64_t>& samples,
                    std::vector<StageProbe>* probes,
                    std::int64_t* stage_start_us);

  ChainConfig config_;
  ChainBank bank_;
  /// Probe points, built once at construction so process() never
  /// allocates stage-name strings.
  std::vector<Boundary> boundaries_;
  /// Inter-stage scratch, reused across process() calls: once its
  /// capacity has grown to the block size the steady state allocates
  /// nothing but the returned output vector.
  std::vector<std::int64_t> buf_;
  /// Interned trace-store name id per probe slot (stage names are fixed
  /// for a chain instance, so the first block pays the intern and the
  /// steady state is id lookups only).
  std::vector<std::uint32_t> stage_ids_;
  /// Stage events for the current block, emitted as one batch at the end
  /// of process() (one staging-lock acquisition instead of one per stage).
  std::vector<obs::store::Event> stage_batch_;
  /// Blocks processed; stage events are recorded for one block in
  /// DSADC_STORE_STAGE_SAMPLE (default 8) to bound steady-state overhead.
  std::uint64_t stage_seq_ = 0;
};

/// The paper's chain, fully designed with default parameters: Sinc4/Sinc4/
/// Sinc6, Saramaki HBF (n1=3, n2=6, fp=0.2125, 24-bit CSD), scaling for
/// MSA=0.81, and a 65-tap inverse-droop equalizer.
ChainConfig paper_chain_config();

}  // namespace dsadc::decim
