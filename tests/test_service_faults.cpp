// Fault injection against a live decimation service: malformed byte
// streams, protocol violations, mid-stream disconnects and slow consumers.
// The invariant under every fault: the server never crashes, and tenants
// on other connections keep streaming bit-exact output.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <random>
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

constexpr auto kWait = 30000ms;

std::vector<std::int32_t> stimulus_codes(verify::StimulusClass c,
                                         std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto raw = verify::make_stimulus(c, n, fx::Format{4, 0}, rng);
  std::vector<std::int32_t> codes(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(raw[i]);
  }
  return codes;
}

class ServiceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::instance().reset_all();
  }

  service::ServerOptions test_options(const char* tag) {
    service::ServerOptions o;
    o.unix_path = service::net::unique_socket_path(tag);
    o.workers = 4;
    o.shards = 4;
    return o;
  }

  /// A healthy tenant streams and must receive the bit-exact reference.
  void expect_healthy_stream(service::Client& client, std::uint32_t ch) {
    const auto codes =
        stimulus_codes(verify::StimulusClass::kModulator, 1024, 17);
    decim::DecimationChain chain(*service::preset_config(0));
    const auto ref = chain.process(codes);
    ASSERT_TRUE(client.open(ch, 0));
    ASSERT_TRUE(client.send_data(ch, codes));
    ASSERT_TRUE(client.wait_sample_count(ch, ref.size(), kWait));
    EXPECT_EQ(client.samples(ch), ref);
  }
};

TEST_F(ServiceFaultTest, GarbledMagicDropsOnlyThatConnection) {
  service::Server server(test_options("garble"));
  server.start();
  auto victim = service::Client::connect_unix(server.unix_path());
  auto healthy = service::Client::connect_unix(server.unix_path());

  const std::uint8_t junk[32] = {0xde, 0xad, 0xbe, 0xef, 0x55, 0xaa};
  ASSERT_TRUE(victim->send_raw(junk, sizeof(junk)));
  // Server notices the unsynchronized stream, warns the client, drops it.
  for (int i = 0; i < 30000 && !victim->disconnected(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(victim->disconnected());
  EXPECT_GE(obs::Registry::instance().counter("service.bad_frames").value(),
            1u);

  expect_healthy_stream(*healthy, 1);
  victim.reset();
  healthy.reset();
  server.stop();
}

TEST_F(ServiceFaultTest, BadCrcDropsOnlyThatConnection) {
  service::Server server(test_options("crc"));
  server.start();
  auto victim = service::Client::connect_unix(server.unix_path());
  auto healthy = service::Client::connect_unix(server.unix_path());

  service::Frame f;
  f.type = service::FrameType::kOpen;
  f.channel = 2;
  f.payload = service::encode_u32(0);
  auto bytes = service::encode_frame(f);
  bytes.back() ^= 0x40;  // corrupt the payload under the CRC
  ASSERT_TRUE(victim->send_raw(bytes.data(), bytes.size()));
  for (int i = 0; i < 30000 && !victim->disconnected(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(victim->disconnected());

  expect_healthy_stream(*healthy, 2);
  victim.reset();
  healthy.reset();
  server.stop();
}

TEST_F(ServiceFaultTest, TruncatedFrameThenDisconnect) {
  // A client dies mid-frame (header promises more payload than ever
  // arrives). The server must tear the connection down on EOF and keep
  // serving everyone else.
  service::Server server(test_options("trunc"));
  server.start();
  auto victim = service::Client::connect_unix(server.unix_path());
  auto healthy = service::Client::connect_unix(server.unix_path());

  service::Frame f;
  f.type = service::FrameType::kData;
  f.channel = 1;
  f.payload = service::encode_codes(std::vector<std::int32_t>(256, 1));
  const auto bytes = service::encode_frame(f);
  ASSERT_TRUE(victim->send_raw(bytes.data(), bytes.size() / 2));
  victim->shutdown_now();

  expect_healthy_stream(*healthy, 3);
  victim.reset();
  healthy.reset();
  server.stop();
}

TEST_F(ServiceFaultTest, OutOfOrderSequenceRejectedStreamContinues) {
  service::Server server(test_options("seq"));
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());

  const std::uint32_t ch = 6;
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 512, 19);
  decim::DecimationChain chain(*service::preset_config(0));
  auto ref = chain.process(codes);
  const auto ref2 = chain.process(codes);
  ref.insert(ref.end(), ref2.begin(), ref2.end());

  ASSERT_TRUE(client->open(ch, 0));
  ASSERT_TRUE(client->wait_ack_count(ch, 1, kWait));
  // Jump the sequence number: the frame is dropped with BAD_SEQ and the
  // expected sequence number does not advance.
  ASSERT_TRUE(client->send_data_seq(ch, 5, codes));
  ASSERT_TRUE(client->wait_error(service::ErrorCode::kBadSeq, kWait));
  // The in-order stream still works, bit-exact, on the same connection.
  ASSERT_TRUE(client->send_data_seq(ch, 0, codes));
  ASSERT_TRUE(client->send_data_seq(ch, 1, codes));
  ASSERT_TRUE(client->wait_sample_count(ch, ref.size(), kWait));
  EXPECT_EQ(client->samples(ch), ref);
  EXPECT_FALSE(client->disconnected());
  client.reset();
  server.stop();
}

TEST_F(ServiceFaultTest, DataWithoutOpenIsNotOpen) {
  service::Server server(test_options("noopen"));
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());

  const std::uint32_t ch = 8;
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 256, 23);
  ASSERT_TRUE(client->send_data(ch, codes));
  ASSERT_TRUE(client->wait_error(service::ErrorCode::kNotOpen, kWait));
  EXPECT_FALSE(client->disconnected());

  // The same channel opens and streams normally afterwards.
  expect_healthy_stream(*client, ch);
  client.reset();
  server.stop();
}

TEST_F(ServiceFaultTest, DoubleOpenRejectedSessionSurvives) {
  service::Server server(test_options("dopen"));
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());

  const std::uint32_t ch = 2;
  ASSERT_TRUE(client->open(ch, 0));
  ASSERT_TRUE(client->wait_ack_count(ch, 1, kWait));
  ASSERT_TRUE(client->open(ch, 0));
  ASSERT_TRUE(client->wait_error(service::ErrorCode::kAlreadyOpen, kWait));
  EXPECT_FALSE(client->disconnected());

  // The original session is intact and streams bit-exact output.
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 1024, 29);
  decim::DecimationChain chain(*service::preset_config(0));
  const auto ref = chain.process(codes);
  ASSERT_TRUE(client->send_data(ch, codes));
  ASSERT_TRUE(client->wait_sample_count(ch, ref.size(), kWait));
  EXPECT_EQ(client->samples(ch), ref);
  client.reset();
  server.stop();
}

TEST_F(ServiceFaultTest, BadPresetRejected) {
  service::Server server(test_options("preset"));
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());
  ASSERT_TRUE(client->open(1, service::kNumPresets + 7));
  ASSERT_TRUE(client->wait_error(service::ErrorCode::kBadPreset, kWait));
  EXPECT_FALSE(client->disconnected());
  client.reset();
  server.stop();
}

TEST_F(ServiceFaultTest, DisconnectMidStreamLeavesServerHealthy) {
  service::Server server(test_options("dc"));
  server.start();
  auto victim = service::Client::connect_unix(server.unix_path());

  const std::uint32_t ch = 3;
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 2048, 31);
  ASSERT_TRUE(victim->open(ch, 0));
  for (int i = 0; i < 4; ++i) (void)victim->send_data(ch, codes);
  victim->shutdown_now();  // vanish with jobs still in flight

  // The server reaps the dead tenant's sessions and keeps serving.
  auto healthy = service::Client::connect_unix(server.unix_path());
  expect_healthy_stream(*healthy, ch);
  victim.reset();
  healthy.reset();
  server.stop();
}

TEST_F(ServiceFaultTest, SlowConsumerBlockPolicyLosesNothing) {
  // kBlock + tiny queues: a paused consumer exerts backpressure all the
  // way to its own socket, but once it resumes every sample arrives.
  auto opts = test_options("slowb");
  opts.queue_capacity = 2;
  opts.out_queue_capacity = 2;
  service::Server server(opts);
  server.start();
  auto slow = service::Client::connect_unix(server.unix_path());
  auto fast = service::Client::connect_unix(server.unix_path());

  const std::uint32_t ch_slow = 0, ch_fast = 1;  // distinct shards
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 512, 37);
  decim::DecimationChain chain(*service::preset_config(0));
  std::vector<std::int64_t> ref;
  constexpr int kBlocks = 32;
  for (int i = 0; i < kBlocks; ++i) {
    const auto out = chain.process(codes);
    ref.insert(ref.end(), out.begin(), out.end());
  }

  slow->set_paused(true);
  ASSERT_TRUE(slow->open(ch_slow, 0));
  std::thread pusher([&] {
    for (int i = 0; i < kBlocks; ++i) {
      ASSERT_TRUE(slow->send_data(ch_slow, codes));
    }
  });

  // The stalled tenant must not stall anyone else.
  expect_healthy_stream(*fast, ch_fast);

  slow->set_paused(false);
  pusher.join();
  ASSERT_TRUE(slow->wait_sample_count(ch_slow, ref.size(), kWait));
  EXPECT_EQ(slow->samples(ch_slow), ref);
  EXPECT_EQ(slow->shed_count(ch_slow), 0u) << "block policy must not shed";
  EXPECT_EQ(obs::Registry::instance().counter("service.shed").value(), 0u);
  slow.reset();
  fast.reset();
  server.stop();
}

TEST_F(ServiceFaultTest, ShedPolicyAccountsEveryDroppedFrame) {
  // kShed + a 1-deep admission queue + a paused consumer: overload must
  // shed DATA frames (never lifecycle frames), notify the client of each
  // drop, and keep the books balanced: accepted + shed == sent.
  auto opts = test_options("shed");
  opts.policy = runtime::SessionRuntime::Overload::kShed;
  opts.queue_capacity = 1;
  opts.workers = 1;
  opts.out_queue_capacity = 4096;  // ample: no output-side drops
  service::Server server(opts);
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());

  const std::uint32_t ch = 5;
  constexpr std::size_t kChunk = 512;  // divisible by the decimation ratio
  constexpr std::size_t kSent = 64;
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, kChunk, 41);

  ASSERT_TRUE(client->open(ch, 0));
  ASSERT_TRUE(client->wait_ack_count(ch, 1, kWait)) << "OPEN must not shed";
  client->set_paused(true);  // don't let DATA_OUT drain to keep load up
  for (std::size_t i = 0; i < kSent; ++i) {
    ASSERT_TRUE(client->send_data(ch, codes));
  }
  client->set_paused(false);

  // Every sent frame resolves as either samples or a SHED notice.
  constexpr std::size_t kPerBlock = kChunk / 16;
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (std::chrono::steady_clock::now() < deadline) {
    if (client->sample_count(ch) / kPerBlock + client->shed_count(ch) >=
        kSent) {
      break;
    }
    std::this_thread::sleep_for(1ms);
  }
  const std::size_t got_blocks = client->sample_count(ch) / kPerBlock;
  const std::size_t sheds = client->shed_count(ch);
  EXPECT_EQ(got_blocks + sheds, kSent);
  EXPECT_EQ(client->sample_count(ch) % kPerBlock, 0u);

  auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("service.accepted.ch5").value(), got_blocks);
  EXPECT_EQ(reg.counter("service.shed.ch5").value(), sheds);
  EXPECT_EQ(reg.counter("service.accepted").value() +
                reg.counter("service.shed").value(),
            kSent);
  EXPECT_FALSE(client->disconnected());
  client.reset();
  server.stop();
}

}  // namespace
