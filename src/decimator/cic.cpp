#include "src/decimator/cic.h"

#include <algorithm>
#include <stdexcept>

#include "src/decimator/simd.h"
#include "src/decimator/soa.h"

namespace dsadc::decim {

CicDecimator::CicDecimator(design::CicSpec spec, CicHardwareOptions options)
    : spec_(spec),
      options_(options),
      fmt_{spec.register_width(), 0},
      integ_(static_cast<std::size_t>(spec.order), 0),
      comb_(static_cast<std::size_t>(spec.order), 0) {
  if (spec.order < 1 || spec.decimation < 2) {
    throw std::invalid_argument("CicDecimator: order >= 1, decimation >= 2");
  }
  if (fmt_.width > 62) {
    throw std::invalid_argument("CicDecimator: register width exceeds 62 bits");
  }
}

void CicDecimator::reset() {
  std::fill(integ_.begin(), integ_.end(), 0);
  std::fill(comb_.begin(), comb_.end(), 0);
  phase_ = 0;
}

std::int64_t CicDecimator::dc_gain() const {
  std::int64_t g = 1;
  for (int k = 0; k < spec_.order; ++k) g *= spec_.decimation;
  return g;
}

bool CicDecimator::push(std::int64_t in, std::int64_t& out) {
  // Integrator cascade at the input rate: y_k = wrap(y_k + y_{k-1}).
  // Wraparound (not saturation) is essential: the comb section cancels the
  // modular overflow exactly as long as registers hold Bmax bits.
  std::int64_t acc = fx::wrap_to(in, fmt_);
  for (auto& state : integ_) {
    state = fx::wrap_to(state + acc, fmt_);
    acc = state;
  }
  phase_ = (phase_ + 1) % spec_.decimation;
  if (phase_ != 0) return false;

  // Decimated side: differentiator (comb) cascade, differencing the
  // pipeline-registered accumulator output.
  std::int64_t v = acc;
  for (auto& state : comb_) {
    const std::int64_t prev = state;
    state = v;
    v = fx::wrap_to(v - prev, fmt_);
  }
  out = v;
  return true;
}

std::vector<std::int64_t> CicDecimator::process(
    std::span<const std::int64_t> in) {
  std::vector<std::int64_t> out;
  out.reserve(in.size() / static_cast<std::size_t>(spec_.decimation) + 1);
  std::int64_t y = 0;
  for (const std::int64_t x : in) {
    if (push(x, y)) out.push_back(y);
  }
  return out;
}

CicDecimatorBank::CicDecimatorBank(design::CicSpec spec, std::size_t channels,
                                   CicHardwareOptions options)
    : spec_(spec),
      options_(options),
      fmt_{spec.register_width(), 0},
      channels_(channels),
      integ_(static_cast<std::size_t>(spec.order) * channels, 0),
      comb_(static_cast<std::size_t>(spec.order) * channels, 0) {
  if (spec.order < 1 || spec.decimation < 2) {
    throw std::invalid_argument(
        "CicDecimatorBank: order >= 1, decimation >= 2");
  }
  if (fmt_.width > 62) {
    throw std::invalid_argument(
        "CicDecimatorBank: register width exceeds 62 bits");
  }
  if (channels_ == 0) {
    throw std::invalid_argument("CicDecimatorBank: channels >= 1");
  }
}

void CicDecimatorBank::reset() {
  std::fill(integ_.begin(), integ_.end(), 0);
  std::fill(comb_.begin(), comb_.end(), 0);
  phase_ = 0;
}

void CicDecimatorBank::process_inplace(std::vector<std::int64_t>& data) {
  // push() with every sample widened to a row of C channels: per-channel
  // arithmetic and ordering are untouched, so each lane is bit-identical
  // to a dedicated CicDecimator, while the inner channel loops are
  // independent int64 lanes (wrap is add/and/xor/sub, no shifts, so
  // SSE2/AVX2 can take them wholesale). At one lane the kernel runs the
  // modular form instead (see the class comment).
  const soa::Wrap wrap(fmt_.width);
  const std::size_t C = channels_;
  if (data.size() % C != 0) {
    throw std::invalid_argument(
        "CicDecimatorBank: data size not a multiple of channels");
  }
  const std::size_t frames = data.size() / C;

  // One fused pass through the dispatched SIMD tier: integrator cascade,
  // decimation (honouring the phase carried over from earlier blocks), and
  // comb cascade, touching each input row once. push()'s input wrap is
  // folded into the first integrator section -- identical by modular
  // arithmetic (wrap(st + wrap(v)) == wrap(st + v)).
  const auto m = static_cast<std::size_t>(spec_.decimation);
  const std::size_t skip = (m - 1) - static_cast<std::size_t>(phase_) % m;
  phase_ = static_cast<int>((static_cast<std::size_t>(phase_) + frames) % m);
  const std::size_t n_out = simd::kernels().cic_stage(
      data.data(), frames, C, integ_.data(), comb_.data(),
      static_cast<std::size_t>(spec_.order), skip, m, wrap);
  data.resize(n_out * C);
}

CicCascade::CicCascade(std::vector<design::CicSpec> specs,
                       CicHardwareOptions options) {
  if (specs.empty()) throw std::invalid_argument("CicCascade: no stages");
  stages_.reserve(specs.size());
  for (const auto& s : specs) stages_.emplace_back(s, options);
}

void CicCascade::reset() {
  for (auto& s : stages_) s.reset();
}

std::size_t CicCascade::total_decimation() const {
  std::size_t m = 1;
  for (const auto& s : stages_) m *= static_cast<std::size_t>(s.spec().decimation);
  return m;
}

std::int64_t CicCascade::total_dc_gain() const {
  std::int64_t g = 1;
  for (const auto& s : stages_) g *= s.dc_gain();
  return g;
}

std::vector<std::int64_t> CicCascade::process(
    std::span<const std::int64_t> in) {
  std::vector<std::int64_t> cur(in.begin(), in.end());
  for (auto& s : stages_) {
    cur = s.process(cur);
  }
  return cur;
}

}  // namespace dsadc::decim
