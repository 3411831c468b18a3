// Service throughput bench: sustained multi-tenant load through a live
// in-process server (unix-domain socket, block policy), verified bit-exact
// against the scalar chain and recorded as BENCH_service.json telemetry:
//
//   service_64ch_mcodes_per_s        aggregate admitted input rate, 64 ch
//   service_256ch_mcodes_per_s       same path at 256 channels
//   service_frame_p50_ms, service_frame_p99_ms
//                                    wire-to-wire DATA->DATA_OUT latency,
//                                    sender-stamped and measured at the
//                                    client receiver; each frame also logs
//                                    a frame.rtt transaction in the trace
//                                    store when one is open
//   service_zero_loss                1.0 when every channel was bit-exact
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/decimator/chain.h"
#include "src/decimator/simd.h"
#include "src/obs/bench_telemetry.h"
#include "src/obs/obs.h"
#include "src/obs/store/store.h"
#include "src/obs/store/tracker.h"
#include "src/service/client.h"
#include "src/service/net.h"
#include "src/service/server.h"
#include "src/service/wire.h"
#include "src/verify/stimulus.h"

namespace {

using namespace dsadc;
using Clock = std::chrono::steady_clock;

struct RunResult {
  double mcodes_per_s = 0.0;
  bool exact = false;
};

/// One load run: every channel of `conns` connections streams `blocks`
/// DATA frames of `frames` codes. When `latency_ms` is non-null,
/// every DATA frame is timestamped at send and its DATA_OUT stamped at the
/// client receiver (wire-to-wire, both socket hops plus the chain work);
/// each sample is also recorded as a frame.rtt transaction when the trace
/// store is open.
RunResult run_load(std::size_t channels, std::size_t conns,
                   std::size_t blocks, std::size_t frames,
                   std::vector<double>* latency_ms = nullptr) {
  std::mt19937_64 rng(777);
  const auto raw = verify::make_stimulus(verify::StimulusClass::kModulator,
                                         frames, fx::Format{4, 0}, rng);
  std::vector<std::int32_t> codes(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(raw[i]);
  }
  decim::DecimationChain chain(*service::preset_config(0));
  std::vector<std::int64_t> ref;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto out = chain.process(codes);
    ref.insert(ref.end(), out.begin(), out.end());
  }

  service::ServerOptions opts;
  opts.unix_path = service::net::unique_socket_path("bench");
  service::Server server(opts);
  server.start();

  // Per-connection send stamps for the latency run: (channel<<32|seq) ->
  // send time. Senders write, the client receiver thread consumes.
  struct Stamps {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Clock::time_point> sent;
  };
  std::vector<Stamps> stamps(conns);
  std::mutex lat_mu;

  std::vector<std::unique_ptr<service::Client>> clients;
  for (std::size_t c = 0; c < conns; ++c) {
    clients.push_back(service::Client::connect_unix(server.unix_path()));
    if (latency_ms != nullptr) {
      auto* st = &stamps[c];
      clients.back()->set_frame_hook(
          [st, latency_ms, &lat_mu](service::FrameType type,
                                    std::uint32_t ch, std::uint32_t seq,
                                    std::size_t) {
            if (type != service::FrameType::kDataOut) return;
            const auto t1 = Clock::now();
            Clock::time_point t0;
            {
              std::lock_guard<std::mutex> lock(st->mu);
              const auto it =
                  st->sent.find((static_cast<std::uint64_t>(ch) << 32) | seq);
              if (it == st->sent.end()) return;
              t0 = it->second;
              st->sent.erase(it);
            }
            const std::chrono::duration<double, std::milli> dt = t1 - t0;
            {
              std::lock_guard<std::mutex> lock(lat_mu);
              latency_ms->push_back(dt.count());
            }
            if (obs::store::enabled()) {
              static const std::uint32_t rtt_id =
                  obs::store::intern("frame.rtt");
              obs::store::TxnScope txn(rtt_id, ch);
              txn.set_value(static_cast<std::int64_t>(dt.count() * 1000.0));
            }
          });
    }
  }
  const std::size_t per_conn = channels / conns;
  const auto t0 = Clock::now();
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < conns; ++c) {
    senders.emplace_back([&, c] {
      auto& client = *clients[c];
      for (std::size_t k = 0; k < per_conn; ++k) {
        client.open(static_cast<std::uint32_t>(c * per_conn + k), 0);
      }
      for (std::size_t b = 0; b < blocks; ++b) {
        for (std::size_t k = 0; k < per_conn; ++k) {
          const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
          if (latency_ms != nullptr) {
            std::lock_guard<std::mutex> lock(stamps[c].mu);
            stamps[c].sent[(static_cast<std::uint64_t>(ch) << 32) |
                           static_cast<std::uint32_t>(b)] = Clock::now();
          }
          client.send_data(ch, codes);
        }
      }
    });
  }
  for (auto& t : senders) t.join();

  RunResult r;
  r.exact = true;
  for (std::size_t c = 0; c < conns; ++c) {
    for (std::size_t k = 0; k < per_conn; ++k) {
      const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
      if (!clients[c]->wait_sample_count(ch, ref.size(),
                                         std::chrono::milliseconds(120000)) ||
          clients[c]->samples(ch) != ref) {
        r.exact = false;
      }
    }
  }
  const std::chrono::duration<double> wall = Clock::now() - t0;
  clients.clear();
  server.stop();

  r.mcodes_per_s = static_cast<double>(channels * blocks * frames) /
                   (wall.count() > 0 ? wall.count() : 1e-9) / 1e6;
  return r;
}

/// Best throughput over `reps` runs. A single run's number swings with
/// scheduler noise on shared runners; the peak is stable enough for the
/// store-overhead gate in CI to compare at a tight tolerance.
RunResult run_load_best(std::size_t channels, std::size_t conns,
                        std::size_t blocks, std::size_t frames, int reps) {
  RunResult best;
  best.exact = true;
  for (int i = 0; i < reps; ++i) {
    const RunResult r = run_load(channels, conns, blocks, frames);
    best.exact = best.exact && r.exact;
    if (r.mcodes_per_s > best.mcodes_per_s) {
      best.mcodes_per_s = r.mcodes_per_s;
    }
  }
  return best;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main() {
  obs::BenchReport report("service");
  report.set_host(decim::simd::tier_name(decim::simd::best_tier()),
                  decim::simd::tier_name(decim::simd::active_tier()));
  obs::set_enabled(false);  // measure the data path, not the counters

  std::printf("decimation service sustained throughput (block policy)\n");
  std::printf("%8s  %8s  %12s  %6s\n", "channels", "conns", "Mcodes/s",
              "exact");

  const auto r64 = run_load_best(64, 4, 16, 512, 3);
  std::printf("%8d  %8d  %12.2f  %6s\n", 64, 4, r64.mcodes_per_s,
              r64.exact ? "yes" : "NO");
  const auto r256 = run_load_best(256, 8, 2, 8192, 3);
  std::printf("%8d  %8d  %12.2f  %6s\n", 256, 8, r256.mcodes_per_s,
              r256.exact ? "yes" : "NO");
  // Wire-to-wire frame latency under a lighter load (the throughput runs
  // above saturate the queues, which would measure queue depth, not the
  // serving path).
  std::vector<double> latency_ms;
  const auto rlat = run_load(64, 4, 8, 512, &latency_ms);
  const double p50 = percentile(latency_ms, 0.50);
  const double p99 = percentile(latency_ms, 0.99);
  std::printf("frame latency (64ch): p50 %.3f ms  p99 %.3f ms over "
              "%zu frames\n",
              p50, p99, latency_ms.size());

  const bool ok = r64.exact && r256.exact && rlat.exact;
  report.set("service_64ch_mcodes_per_s", r64.mcodes_per_s);
  report.set("service_256ch_mcodes_per_s", r256.mcodes_per_s);
  report.set("service_frame_p50_ms", p50);
  report.set("service_frame_p99_ms", p99);
  report.set("service_zero_loss", ok);
  return report.finish(ok);
}
