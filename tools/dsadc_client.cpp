// dsadc_client: load generator / soak driver for the decimation service.
//
// Streams modulator stimulus over many channels and connections, verifies
// every returned sample against the scalar DecimationChain reference, and
// prints a throughput/loss report. Exits nonzero on any sample loss (block
// policy), accounting imbalance (shed policy), or protocol error.
//
//   dsadc_client --serve [options]          in-process server (default)
//   dsadc_client --unix /path/to.sock ...   against an external server
//   dsadc_client --tcp 127.0.0.1:7150 ...
//
// Options:
//   --channels N      total channels                   (default 64)
//   --connections N   client connections (alias --conns)  (default 4)
//   --blocks N        DATA frames per channel          (default 16)
//   --frames N        modulator codes per DATA frame   (default 512)
//   --preset P        chain config preset id           (default 0)
//   --policy P        block | shed (with --serve)      (default block)
//   --stimulus S      stimulus class name              (default modulator)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/decimator/chain.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/service/client.h"
#include "src/service/net.h"
#include "src/service/server.h"
#include "src/service/wire.h"
#include "src/verify/stimulus.h"

namespace {

using namespace dsadc;
using namespace std::chrono_literals;

struct Args {
  std::string unix_path;
  std::string tcp_host;
  std::uint16_t tcp_port = 0;
  bool serve = false;
  std::size_t channels = 64;
  std::size_t conns = 4;
  std::size_t blocks = 16;
  std::size_t frames = 512;
  std::uint32_t preset = 0;
  std::string policy = "block";
  std::string stimulus = "modulator";
  std::string registry_out;  ///< dump the metrics registry JSON here
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--serve | --unix PATH | --tcp HOST:PORT]\n"
               "  [--channels N] [--connections N] [--blocks N] [--frames N]\n"
               "  [--preset P] [--policy block|shed] [--stimulus NAME]\n"
               "  [--registry-out FILE]\n",
               argv0);
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dsadc_client: %s needs a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--serve") {
      a->serve = true;
    } else if (arg == "--unix") {
      const char* v = next("--unix");
      if (!v) return false;
      a->unix_path = v;
    } else if (arg == "--tcp") {
      const char* v = next("--tcp");
      if (!v) return false;
      const std::string hp = v;
      const auto colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "dsadc_client: --tcp wants HOST:PORT\n");
        return false;
      }
      a->tcp_host = hp.substr(0, colon);
      a->tcp_port =
          static_cast<std::uint16_t>(std::atoi(hp.c_str() + colon + 1));
    } else if (arg == "--channels") {
      const char* v = next("--channels");
      if (!v) return false;
      a->channels = std::strtoul(v, nullptr, 10);
    } else if (arg == "--conns" || arg == "--connections") {
      const char* v = next(arg.c_str());
      if (!v) return false;
      a->conns = std::strtoul(v, nullptr, 10);
    } else if (arg == "--blocks") {
      const char* v = next("--blocks");
      if (!v) return false;
      a->blocks = std::strtoul(v, nullptr, 10);
    } else if (arg == "--frames") {
      const char* v = next("--frames");
      if (!v) return false;
      a->frames = std::strtoul(v, nullptr, 10);
    } else if (arg == "--preset") {
      const char* v = next("--preset");
      if (!v) return false;
      a->preset = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--policy") {
      const char* v = next("--policy");
      if (!v) return false;
      a->policy = v;
    } else if (arg == "--stimulus") {
      const char* v = next("--stimulus");
      if (!v) return false;
      a->stimulus = v;
    } else if (arg == "--registry-out") {
      const char* v = next("--registry-out");
      if (!v) return false;
      a->registry_out = v;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  if (!a->serve && a->unix_path.empty() && a->tcp_host.empty()) {
    a->serve = true;  // default: self-contained run
  }
  if (a->channels == 0 || a->conns == 0 || a->channels < a->conns ||
      a->blocks == 0 || a->frames == 0 || a->frames % 16 != 0) {
    std::fprintf(stderr,
                 "dsadc_client: need channels >= conns >= 1, blocks >= 1, "
                 "frames a positive multiple of 16\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return 2;

  obs::set_enabled(true);

  // One stimulus vector shared by every channel: a single scalar reference
  // covers all of them, which is what makes loss detection bit-exact.
  std::mt19937_64 rng(12345);
  verify::StimulusClass cls;
  try {
    cls = verify::stimulus_from_name(args.stimulus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsadc_client: %s\n", e.what());
    return 2;
  }
  const auto raw =
      verify::make_stimulus(cls, args.frames, fx::Format{4, 0}, rng);
  std::vector<std::int32_t> codes(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(raw[i]);
  }

  const auto cfg = service::preset_config(args.preset);
  if (!cfg) {
    std::fprintf(stderr, "dsadc_client: unknown preset %u\n", args.preset);
    return 2;
  }
  decim::DecimationChain chain(*cfg);
  std::vector<std::int64_t> ref;
  for (std::size_t b = 0; b < args.blocks; ++b) {
    const auto out = chain.process(codes);
    ref.insert(ref.end(), out.begin(), out.end());
  }
  const std::size_t per_block = ref.size() / args.blocks;

  std::unique_ptr<service::Server> server;
  if (args.serve) {
    service::ServerOptions o = service::options_from_env();
    o.unix_path = service::net::unique_socket_path("loadgen");
    if (args.policy == "shed") {
      o.policy = runtime::SessionRuntime::Overload::kShed;
    } else if (args.policy != "block") {
      std::fprintf(stderr, "dsadc_client: --policy block|shed\n");
      return 2;
    }
    server = std::make_unique<service::Server>(o);
    server->start();
    args.unix_path = server->unix_path();
  }

  std::vector<std::unique_ptr<service::Client>> clients;
  try {
    for (std::size_t c = 0; c < args.conns; ++c) {
      clients.push_back(args.unix_path.empty()
                            ? service::Client::connect_tcp(args.tcp_host,
                                                           args.tcp_port)
                            : service::Client::connect_unix(args.unix_path));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsadc_client: %s\n", e.what());
    return 2;
  }

  const std::size_t per_conn = args.channels / args.conns;
  const std::size_t channels = per_conn * args.conns;  // even striping
  const auto t0 = std::chrono::steady_clock::now();

  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < args.conns; ++c) {
    senders.emplace_back([&, c] {
      auto& client = *clients[c];
      for (std::size_t k = 0; k < per_conn; ++k) {
        const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
        client.open(ch, args.preset);
      }
      for (std::size_t b = 0; b < args.blocks; ++b) {
        for (std::size_t k = 0; k < per_conn; ++k) {
          const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
          client.send_data(ch, codes);
        }
      }
    });
  }
  for (auto& t : senders) t.join();

  // Wait until every DATA frame has resolved: samples or a SHED notice.
  bool ok = true;
  std::size_t total_sheds = 0, exact = 0;
  const auto deadline = std::chrono::steady_clock::now() + 120s;
  for (std::size_t c = 0; c < args.conns && ok; ++c) {
    for (std::size_t k = 0; k < per_conn; ++k) {
      const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
      for (;;) {
        const std::size_t blocks_in =
            clients[c]->sample_count(ch) / per_block;
        if (blocks_in + clients[c]->shed_count(ch) >= args.blocks) break;
        if (std::chrono::steady_clock::now() >= deadline ||
            clients[c]->disconnected()) {
          std::fprintf(stderr,
                       "dsadc_client: channel %u stalled at %zu blocks + "
                       "%zu sheds of %zu\n",
                       ch, blocks_in, clients[c]->shed_count(ch),
                       args.blocks);
          ok = false;
          break;
        }
        std::this_thread::sleep_for(1ms);
      }
      if (!ok) break;
      total_sheds += clients[c]->shed_count(ch);
      if (clients[c]->shed_count(ch) == 0 &&
          clients[c]->samples(ch) == ref) {
        ++exact;
      } else if (clients[c]->sample_count(ch) % per_block != 0) {
        std::fprintf(stderr, "dsadc_client: channel %u partial block\n", ch);
        ok = false;
      }
    }
    if (!clients[c]->errors().empty()) {
      for (const auto& [ch, code] : clients[c]->errors()) {
        std::fprintf(stderr, "dsadc_client: channel %u error %s\n", ch,
                     service::error_code_name(code));
      }
      ok = false;
    }
  }
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;

  const std::size_t sent = channels * args.blocks;
  const double input_sps =
      static_cast<double>((sent - total_sheds) * args.frames) /
      (wall.count() > 0 ? wall.count() : 1e-9);
  std::printf("channels:        %zu over %zu connection(s)\n", channels,
              args.conns);
  std::printf("frames sent:     %zu x %zu codes (%s)\n", sent, args.frames,
              args.stimulus.c_str());
  std::printf("frames shed:     %zu\n", total_sheds);
  std::printf("bit-exact chans: %zu / %zu\n", exact, channels);
  std::printf("wall time:       %.3f s\n", wall.count());
  std::printf("throughput:      %.2f Mcodes/s aggregate\n", input_sps / 1e6);

  if (args.policy == "block" && (total_sheds != 0 || exact != channels)) {
    std::fprintf(stderr,
                 "dsadc_client: LOSS under block policy (%zu sheds, "
                 "%zu/%zu exact)\n",
                 total_sheds, exact, channels);
    ok = false;
  }

  clients.clear();
  if (server) server->stop();

  if (!args.registry_out.empty()) {
    // The per-tenant service.* metrics live in this process when serving
    // in-process; obs_report --registry renders them as a tenant table.
    const std::string json = obs::Registry::instance().to_json(2) + "\n";
    std::FILE* f = std::fopen(args.registry_out.c_str(), "wb");
    if (f == nullptr ||
        std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
      std::fprintf(stderr, "dsadc_client: cannot write %s\n",
                   args.registry_out.c_str());
      ok = false;
    }
    if (f != nullptr) std::fclose(f);
  }

  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
