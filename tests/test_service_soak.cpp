// Soak test (ctest label `soak`): many channels streaming sustained load
// through a live server. Block policy must lose nothing -- every channel
// receives the bit-exact reference stream -- and shed policy must keep
// the books balanced per tenant: accepted + shed == sent.
//
// Scale knobs (env, so CI smoke can shrink the run):
//   DSADC_SOAK_CHANNELS    total channels        (default 256)
//   DSADC_SOAK_CONNS       client connections    (default 8)
//   DSADC_SOAK_BLOCKS      DATA frames/channel   (default 8)
//   DSADC_SOAK_FRAMES      codes per DATA frame  (default 512)
//   DSADC_SOAK_IDLE_CONNS  idle epoll connections (default 1000)
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
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

constexpr auto kWait = 120000ms;  // whole-soak budget, not per-channel

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return v;
  }
  return fallback;
}

struct SoakScale {
  std::size_t channels = env_size("DSADC_SOAK_CHANNELS", 256);
  std::size_t conns = env_size("DSADC_SOAK_CONNS", 8);
  std::size_t blocks = env_size("DSADC_SOAK_BLOCKS", 8);
  std::size_t frames = env_size("DSADC_SOAK_FRAMES", 512);
};

class ServiceSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::instance().reset_all();
  }
};

TEST_F(ServiceSoakTest, BlockPolicySustainsAllChannelsZeroLoss) {
  const SoakScale scale;
  ASSERT_GE(scale.channels, scale.conns);

  // Every channel streams the same stimulus, so one scalar reference
  // covers all of them: `blocks` consecutive process() calls.
  std::mt19937_64 rng(4242);
  const auto raw = verify::make_stimulus(verify::StimulusClass::kModulator,
                                         scale.frames, fx::Format{4, 0}, rng);
  std::vector<std::int32_t> codes(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(raw[i]);
  }
  decim::DecimationChain chain(*service::preset_config(0));
  std::vector<std::int64_t> ref;
  for (std::size_t b = 0; b < scale.blocks; ++b) {
    const auto out = chain.process(codes);
    ref.insert(ref.end(), out.begin(), out.end());
  }

  service::ServerOptions opts;
  opts.unix_path = service::net::unique_socket_path("soakb");
  opts.shards = 16;
  opts.queue_capacity = 16;  // small on purpose: admission backpressure
  service::Server server(opts);
  server.start();

  // `conns` connections, channels striped across them with globally
  // unique ids so per-tenant counters are 1:1 with channels.
  std::vector<std::unique_ptr<service::Client>> clients;
  for (std::size_t c = 0; c < scale.conns; ++c) {
    clients.push_back(service::Client::connect_unix(server.unix_path()));
  }
  const std::size_t per_conn = scale.channels / scale.conns;
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < scale.conns; ++c) {
    senders.emplace_back([&, c] {
      auto& client = *clients[c];
      for (std::size_t k = 0; k < per_conn; ++k) {
        const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
        ASSERT_TRUE(client.open(ch, 0));
      }
      for (std::size_t b = 0; b < scale.blocks; ++b) {
        for (std::size_t k = 0; k < per_conn; ++k) {
          const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
          ASSERT_TRUE(client.send_data(ch, codes));
        }
      }
    });
  }
  for (auto& t : senders) t.join();

  std::size_t exact = 0;
  for (std::size_t c = 0; c < scale.conns; ++c) {
    for (std::size_t k = 0; k < per_conn; ++k) {
      const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
      ASSERT_TRUE(clients[c]->wait_sample_count(ch, ref.size(), kWait))
          << "channel " << ch << " lost samples under block policy";
      if (clients[c]->samples(ch) == ref) ++exact;
    }
    EXPECT_TRUE(clients[c]->errors().empty()) << "connection " << c;
  }
  EXPECT_EQ(exact, per_conn * scale.conns)
      << "every channel must be bit-exact";

  clients.clear();
  server.stop();

  auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("service.accepted").value(),
            per_conn * scale.conns * scale.blocks);
  EXPECT_EQ(reg.counter("service.shed").value(), 0u);
  EXPECT_EQ(reg.counter("service.shed_out").value(), 0u);
  EXPECT_EQ(server.inflight(), 0u);
}

TEST_F(ServiceSoakTest, ShedPolicyAccountingBalancesUnderOverload) {
  SoakScale scale;
  // Overload a deliberately under-provisioned server: half the channels,
  // 1-deep admission queues, one worker.
  scale.channels = std::max<std::size_t>(scale.channels / 2, scale.conns);

  std::mt19937_64 rng(4343);
  const auto raw = verify::make_stimulus(verify::StimulusClass::kPrbs,
                                         scale.frames, fx::Format{4, 0}, rng);
  std::vector<std::int32_t> codes(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(raw[i]);
  }
  ASSERT_EQ(scale.frames % 16, 0u) << "frames must divide the ratio";
  const std::size_t per_block = scale.frames / 16;

  service::ServerOptions opts;
  opts.unix_path = service::net::unique_socket_path("soaks");
  opts.policy = runtime::SessionRuntime::Overload::kShed;
  opts.shards = 16;
  opts.queue_capacity = 1;
  opts.workers = 1;
  opts.out_queue_capacity = 1 << 15;  // no output-side drops: admission only
  service::Server server(opts);
  server.start();

  std::vector<std::unique_ptr<service::Client>> clients;
  for (std::size_t c = 0; c < scale.conns; ++c) {
    clients.push_back(service::Client::connect_unix(server.unix_path()));
  }
  const std::size_t per_conn = scale.channels / scale.conns;
  std::vector<std::thread> senders;
  for (std::size_t c = 0; c < scale.conns; ++c) {
    senders.emplace_back([&, c] {
      auto& client = *clients[c];
      for (std::size_t k = 0; k < per_conn; ++k) {
        const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
        ASSERT_TRUE(client.open(ch, 0));
      }
      for (std::size_t b = 0; b < scale.blocks; ++b) {
        for (std::size_t k = 0; k < per_conn; ++k) {
          const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
          ASSERT_TRUE(client.send_data(ch, codes));
        }
      }
    });
  }
  for (auto& t : senders) t.join();

  // Every DATA frame must resolve: samples received or a SHED notice.
  std::size_t total_sheds = 0;
  for (std::size_t c = 0; c < scale.conns; ++c) {
    for (std::size_t k = 0; k < per_conn; ++k) {
      const auto ch = static_cast<std::uint32_t>(c * per_conn + k);
      const auto deadline = std::chrono::steady_clock::now() + kWait;
      for (;;) {
        const std::size_t blocks_in =
            clients[c]->sample_count(ch) / per_block;
        const std::size_t sheds = clients[c]->shed_count(ch);
        if (blocks_in + sheds >= scale.blocks) break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "channel " << ch << ": " << blocks_in << " blocks + "
            << sheds << " sheds of " << scale.blocks;
        std::this_thread::sleep_for(1ms);
      }
      const std::size_t blocks_in = clients[c]->sample_count(ch) / per_block;
      const std::size_t sheds = clients[c]->shed_count(ch);
      EXPECT_EQ(blocks_in + sheds, scale.blocks) << "channel " << ch;
      EXPECT_EQ(clients[c]->sample_count(ch) % per_block, 0u)
          << "channel " << ch << ": partial block served";
      // Per-tenant books: the server counted exactly what the client saw.
      auto& reg = obs::Registry::instance();
      EXPECT_EQ(reg.counter("service.accepted.ch" + std::to_string(ch))
                    .value(),
                blocks_in)
          << "channel " << ch;
      EXPECT_EQ(reg.counter("service.shed.ch" + std::to_string(ch)).value(),
                sheds)
          << "channel " << ch;
      total_sheds += sheds;
    }
  }
  auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("service.accepted").value() +
                reg.counter("service.shed").value(),
            per_conn * scale.conns * scale.blocks);
  EXPECT_EQ(reg.counter("service.shed").value(), total_sheds);
  EXPECT_EQ(reg.counter("service.shed_out").value(), 0u);

  clients.clear();
  server.stop();
}

TEST_F(ServiceSoakTest, ThousandIdleConnectionsEpollStaysHealthy) {
  // A large herd of connected-but-silent tenants must cost the epoll
  // event loop nothing: a live tenant streams bit-exact through the
  // middle of the herd, half the herd then vanishes abruptly (RDHUP
  // storm), and the stream plus server shutdown stay clean. Idle conns
  // are raw sockets on purpose -- no client threads, just fds parked in
  // the server's epoll sets.
  struct rlimit rl{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &rl), 0);
  if (rl.rlim_cur < 4096) {
    rlimit want = rl;
    want.rlim_cur = std::min<rlim_t>(4096, rl.rlim_max);
    (void)setrlimit(RLIMIT_NOFILE, &want);
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &rl), 0);
  }
  // Each idle connection is one fd here and one in the server, plus
  // headroom for the server's own plumbing and the active client.
  const std::size_t idle =
      std::min(env_size("DSADC_SOAK_IDLE_CONNS", 1000),
               (static_cast<std::size_t>(rl.rlim_cur) - 128) / 2);

  service::ServerOptions opts;
  opts.unix_path = service::net::unique_socket_path("soaki");
  opts.event_threads = 2;
  service::Server server(opts);
  server.start();

  std::vector<int> herd;
  herd.reserve(idle);
  for (std::size_t i = 0; i < idle; ++i) {
    std::string err;
    int fd = service::net::connect_unix(server.unix_path(), &err);
    for (int retry = 0; fd < 0 && retry < 50; ++retry) {
      // The acceptor can momentarily fall behind a connect burst.
      std::this_thread::sleep_for(1ms);
      fd = service::net::connect_unix(server.unix_path(), &err);
    }
    ASSERT_GE(fd, 0) << "idle connect " << i << ": " << err;
    herd.push_back(fd);
  }

  std::mt19937_64 rng(4545);
  const auto raw = verify::make_stimulus(verify::StimulusClass::kModulator,
                                         512, fx::Format{4, 0}, rng);
  std::vector<std::int32_t> codes(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(raw[i]);
  }
  decim::DecimationChain chain(*service::preset_config(0));
  const auto block_ref = chain.process(codes);

  auto client = service::Client::connect_unix(server.unix_path());
  ASSERT_TRUE(client->open(1, 0));
  ASSERT_TRUE(client->send_data(1, codes));
  ASSERT_TRUE(client->wait_sample_count(1, block_ref.size(), kWait));
  EXPECT_EQ(client->samples(1), block_ref);

  // Half the herd disconnects at once while the tenant keeps streaming.
  for (std::size_t i = 0; i < herd.size() / 2; ++i) ::close(herd[i]);
  ASSERT_TRUE(client->send_data(1, codes));
  ASSERT_TRUE(client->wait_sample_count(1, 2 * block_ref.size(), kWait));
  EXPECT_TRUE(client->errors().empty());

  for (std::size_t i = herd.size() / 2; i < herd.size(); ++i) {
    ::close(herd[i]);
  }
  client.reset();
  server.stop();

  auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("service.connections").value(), idle + 1);
}

}  // namespace
