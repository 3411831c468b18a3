#include "src/runtime/multichannel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/obs/metrics.h"

namespace dsadc::runtime {
std::size_t configured_threads() {
  if (const char* env = std::getenv("DSADC_RUNTIME_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return static_cast<std::size_t>(n);
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

MultiChannelRuntime::MultiChannelRuntime(const decim::ChainConfig& config,
                                         std::size_t channels) {
  if (channels == 0) {
    throw std::invalid_argument("MultiChannelRuntime: channels >= 1");
  }
  channels_.reserve(channels);
  for (std::size_t c = 0; c < channels; ++c) channels_.emplace_back(config);
}

void MultiChannelRuntime::reset() {
  for (auto& ch : channels_) ch.chain.reset();
}

std::vector<std::vector<std::int64_t>> MultiChannelRuntime::process(
    const std::vector<std::vector<std::int32_t>>& codes) {
  std::vector<std::vector<std::int64_t>> out;
  process_into(codes, out);
  return out;
}

void MultiChannelRuntime::process_into(
    const std::vector<std::vector<std::int32_t>>& codes,
    std::vector<std::vector<std::int64_t>>& out) {
  if (codes.size() != channels_.size()) {
    throw std::invalid_argument(
        "MultiChannelRuntime: one code block per channel expected");
  }
  const std::size_t frames = codes.empty() ? 0 : codes[0].size();
  for (const auto& c : codes) {
    if (c.size() != frames) {
      throw std::invalid_argument(
          "MultiChannelRuntime: all channel blocks must have equal length");
    }
  }

  out.resize(channels_.size());
  const bool obs_on = obs::enabled();

  const auto run_channel = [&](std::size_t c) {
    Channel& ch = channels_[c];
    const auto t0 = std::chrono::steady_clock::now();
    out[c] = ch.chain.process(codes[c]);
    if (obs_on) {
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      if (ch.samples == nullptr) {
        auto& reg = obs::Registry::instance();
        const std::string id = std::to_string(c);
        ch.samples = &reg.counter("runtime.samples.ch" + id);
        ch.throughput = &reg.gauge("runtime.throughput_sps.ch" + id);
      }
      ch.samples->add(frames);
      ch.throughput->set(
          dt.count() > 0.0 ? static_cast<double>(frames) / dt.count() : 0.0);
    }
  };

  const std::size_t workers =
      std::min(configured_threads(), channels_.size());
  if (workers <= 1) {
    for (std::size_t c = 0; c < channels_.size(); ++c) run_channel(c);
    return;
  }

  // Atomic-claim worker pool over the (independent) channels. Each
  // channel's arithmetic is its own chain's, so the result is identical
  // for every worker count; only scheduling varies.
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto worker = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= channels_.size()) return;
      try {
        run_channel(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace dsadc::runtime
