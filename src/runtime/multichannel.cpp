#include "src/runtime/multichannel.h"

#include <algorithm>
#include <array>
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
                                         std::size_t channels)
    : channels_(channels) {
  if (channels_ == 0) {
    throw std::invalid_argument("MultiChannelRuntime: channels >= 1");
  }
  groups_.reserve((channels_ + kGroupWidth - 1) / kGroupWidth);
  for (std::size_t first = 0; first < channels_; first += kGroupWidth) {
    const std::size_t width = std::min(kGroupWidth, channels_ - first);
    groups_.emplace_back(config, first, width);
  }
}

void MultiChannelRuntime::reset() {
  for (auto& g : groups_) g.bank.reset();
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
  if (codes.size() != channels_) {
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

  out.resize(channels_);
  const bool obs_on = obs::enabled();

  const auto run_group = [&](Group& g) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t w = g.width;
    std::array<const std::int32_t*, kGroupWidth> rows{};
    for (std::size_t lane = 0; lane < w; ++lane) {
      rows[lane] = codes[g.first + lane].data();
      out[g.first + lane].clear();
    }
    g.bank.process_rows({rows.data(), w}, frames, {out.data() + g.first, w});
    if (obs_on) {
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      const double sps =
          dt.count() > 0.0 ? static_cast<double>(frames) / dt.count() : 0.0;
      if (g.sample_counters.empty()) {
        auto& reg = obs::Registry::instance();
        g.sample_counters.reserve(w);
        g.throughput_gauges.reserve(w);
        for (std::size_t lane = 0; lane < w; ++lane) {
          const std::string ch = std::to_string(g.first + lane);
          g.sample_counters.push_back(&reg.counter("runtime.samples.ch" + ch));
          g.throughput_gauges.push_back(
              &reg.gauge("runtime.throughput_sps.ch" + ch));
        }
      }
      for (std::size_t lane = 0; lane < w; ++lane) {
        g.sample_counters[lane]->add(frames);
        g.throughput_gauges[lane]->set(sps);
      }
    }
  };

  const std::size_t workers =
      std::min(configured_threads(), groups_.size());
  if (workers <= 1) {
    for (auto& g : groups_) run_group(g);
    return;
  }

  // Atomic-claim worker pool over the (independent) groups. Group width
  // is fixed, so partitioning -- and therefore every lane's arithmetic --
  // is identical for every worker count; only scheduling varies.
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= groups_.size()) return;
      try {
        run_group(groups_[i]);
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
