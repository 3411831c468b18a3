// Independent oracle for the decimation chain's block paths.
//
// DecimationChain, ChainBank, MultiChannelRuntime and the session runtime
// all run the same bank kernels, so comparing them with each other
// would compare a kernel with itself. PushChain instead runs every stage's
// push() reference sample by sample (and fx::requantize for the CIC
// renormalization), so each fx event is counted per hit rather than
// tallied per block. fx_snapshot() reads every per-site fx counter the
// chain touches, for comparing event attribution as well as samples, and
// run_bank() drives any stage bank over per-lane streams in fixed-size
// blocks, for comparing a bank's lanes with the stage's push().
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/decimator/chain.h"
#include "src/fixedpoint/fixed.h"
#include "src/obs/metrics.h"

namespace dsadc::testutil {

/// Every fx.round.* / fx.saturate.* / fx.wrap.* counter of the chain's
/// requantization sites.
inline std::map<std::string, std::uint64_t> fx_snapshot() {
  static const char* kSites[] = {"chain_hbf_in", "hbf_in",     "hbf_product",
                                 "hbf_internal", "hbf_out",    "scaler_out",
                                 "fir_out"};
  static const char* kEvents[] = {"saturate", "round", "wrap"};
  std::map<std::string, std::uint64_t> snap;
  auto& reg = obs::Registry::instance();
  for (const char* site : kSites) {
    for (const char* ev : kEvents) {
      const std::string name = std::string("fx.") + ev + "." + site;
      snap[name] = reg.counter(name).value();
    }
  }
  return snap;
}

/// Feeds `in[lane]` (equal lengths) to `bank` (one lane per stream) as
/// channel-interleaved frames, `block` frames per process_inplace call,
/// and returns each lane's output stream.
template <class Bank>
std::vector<std::vector<std::int64_t>> run_bank(
    Bank& bank, const std::vector<std::vector<std::int64_t>>& in,
    std::size_t block) {
  const std::size_t lanes = in.size();
  const std::size_t n = in[0].size();
  std::vector<std::vector<std::int64_t>> out(lanes);
  std::vector<std::int64_t> buf;
  for (std::size_t pos = 0; pos < n; pos += block) {
    const std::size_t frames = std::min(block, n - pos);
    buf.resize(frames * lanes);
    for (std::size_t f = 0; f < frames; ++f) {
      for (std::size_t l = 0; l < lanes; ++l) {
        buf[f * lanes + l] = in[l][pos + f];
      }
    }
    bank.process_inplace(buf);
    for (std::size_t f = 0; f < buf.size() / lanes; ++f) {
      for (std::size_t l = 0; l < lanes; ++l) {
        out[l].push_back(buf[f * lanes + l]);
      }
    }
  }
  return out;
}

/// DecimationChain::process sample by sample through the push() models.
/// Streaming state carries across process() calls, as in the chain.
class PushChain {
 public:
  explicit PushChain(const decim::ChainConfig& cfg)
      : cfg_(cfg),
        cic_(cfg.cic_stages),
        hbf_(cfg.hbf, cfg.hbf_in_format, cfg.hbf_out_format,
             cfg.hbf_coeff_frac_bits),
        scaler_(cfg.scale, cfg.hbf_out_format, cfg.scaler_out_format,
                /*frac_bits=*/14, /*max_digits=*/8),
        equalizer_(decim::FixedTaps::from_real(cfg.equalizer_taps,
                                               cfg.equalizer_frac_bits),
                   /*decimation=*/1, cfg.scaler_out_format,
                   cfg.output_format),
        gain_log2_(decim::cic_cascade_gain_log2(cfg)) {}

  std::vector<std::int64_t> process(std::span<const std::int32_t> codes) {
    static const fx::EventCounters& renorm =
        fx::event_counters("chain_hbf_in");
    std::vector<std::int64_t> out;
    for (const std::int32_t code : codes) {
      std::int64_t v = code;
      bool emitted = true;
      for (auto& stage : cic_.stages()) {
        if (!stage.push(v, v)) {
          emitted = false;
          break;
        }
      }
      if (!emitted) continue;
      v = fx::requantize(v, gain_log2_, cfg_.hbf_in_format,
                         fx::Rounding::kRoundNearest, fx::Overflow::kSaturate,
                         &renorm);
      if (!hbf_.push(v, v)) continue;
      v = scaler_.push(v);
      if (equalizer_.push(v, v)) out.push_back(v);
    }
    return out;
  }

 private:
  decim::ChainConfig cfg_;
  decim::CicCascade cic_;
  decim::SaramakiHbfDecimator hbf_;
  decim::ScalingStage scaler_;
  decim::FirDecimator equalizer_;
  int gain_log2_;
};

}  // namespace dsadc::testutil
