// Decimation service: wire protocol round-trips, session lifecycle over a
// live server, bit-exactness of served output against the scalar
// DecimationChain (samples AND fx requantization counters), and
// determinism across DSADC_RUNTIME_THREADS.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/decimator/chain.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/runtime/session.h"
#include "src/service/client.h"
#include "src/service/net.h"
#include "src/service/server.h"
#include "src/service/wire.h"
#include "src/verify/stimulus.h"
#include "tests/push_chain.h"

namespace {

using namespace dsadc;
using namespace std::chrono_literals;

constexpr auto kWait = 30000ms;  // generous: CI runs this under sanitizers

std::uint32_t fuzz_seed(std::uint32_t fallback) {
  if (const char* env = std::getenv("DSADC_FUZZ_SEED")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<std::uint32_t>(v);
  }
  return fallback;
}

std::vector<std::int32_t> stimulus_codes(verify::StimulusClass c,
                                         std::size_t n,
                                         std::mt19937_64& rng) {
  const auto raw = verify::make_stimulus(c, n, fx::Format{4, 0}, rng);
  std::vector<std::int32_t> codes(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(raw[i]);
  }
  return codes;
}

// fx event-counter totals across the chain's requantization sites.
// Equality proves the served path made identical per-sample saturate and
// round decisions as the reference (counter adds are commutative, so
// worker count and scheduling cannot affect the totals).
using testutil::fx_snapshot;

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::instance().reset_all();
  }
  void TearDown() override { ::unsetenv("DSADC_RUNTIME_THREADS"); }

  service::ServerOptions test_options(const char* tag) {
    service::ServerOptions o;
    o.unix_path = service::net::unique_socket_path(tag);
    o.workers = 4;
    o.shards = 8;
    return o;
  }

  /// Send each of `bad` on OPEN (channels 10, 11, ...) and as a CONFIG of
  /// a serving session, with data blocks in between. Every one must get an
  /// ERROR frame; the serving session keeps its old chain, so its output
  /// must equal one DecimationChain(paper config) over all the blocks.
  void expect_refused_while_serving(
      const char* name, const std::vector<decim::ChainConfig>& bad,
      std::uint32_t seed) {
    service::Server server(test_options(name));
    server.start();
    auto client = service::Client::connect_unix(server.unix_path());

    const decim::ChainConfig cfg = decim::paper_chain_config();
    std::mt19937_64 rng(fuzz_seed(seed));
    std::vector<std::vector<std::int32_t>> parts;
    for (std::size_t i = 0; i <= bad.size(); ++i) {
      parts.push_back(
          stimulus_codes(verify::StimulusClass::kModulator, 1024, rng));
    }
    decim::DecimationChain ref(cfg);
    std::vector<std::int64_t> expect;
    for (const auto& part : parts) {
      const auto out = ref.process(part);
      expect.insert(expect.end(), out.begin(), out.end());
    }

    const std::uint32_t good = 3;
    ASSERT_TRUE(client->open_config(good, cfg));
    ASSERT_TRUE(client->wait_ack_count(good, 1, kWait)) << "OPEN not acked";
    ASSERT_TRUE(client->send_data(good, parts[0]));
    for (std::size_t i = 0; i < bad.size(); ++i) {
      const auto refused = static_cast<std::uint32_t>(10 + i);
      ASSERT_TRUE(client->open_config(refused, bad[i]));
      ASSERT_TRUE(client->reconfigure_config(good, bad[i]));
      ASSERT_TRUE(client->send_data(good, parts[i + 1]));
    }
    ASSERT_TRUE(client->wait_sample_count(good, expect.size(), kWait));
    EXPECT_EQ(client->samples(good), expect);

    // One ERROR per refused OPEN and one per refused CONFIG.
    const std::size_t want_errors = 2 * bad.size();
    const auto deadline = std::chrono::steady_clock::now() + kWait;
    while (client->errors().size() < want_errors &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    std::map<std::uint32_t, std::size_t> errors_by_channel;
    for (const auto& [ch, code] : client->errors()) {
      EXPECT_EQ(code, service::ErrorCode::kInternal) << "channel " << ch;
      ++errors_by_channel[ch];
    }
    EXPECT_EQ(errors_by_channel[good], bad.size());
    for (std::size_t i = 0; i < bad.size(); ++i) {
      EXPECT_EQ(errors_by_channel[static_cast<std::uint32_t>(10 + i)], 1u)
          << "config " << i;
    }
    client.reset();
    server.stop();
  }
};

// --- wire protocol -------------------------------------------------------

TEST(ServiceWire, FrameRoundTrip) {
  service::Frame f;
  f.type = service::FrameType::kData;
  f.channel = 42;
  f.seq = 7;
  f.payload = service::encode_codes(std::vector<std::int32_t>{-8, 7, 0, 3});

  const auto bytes = service::encode_frame(f);
  ASSERT_EQ(bytes.size(), service::kHeaderBytes + f.payload.size());

  service::FrameParser parser;
  parser.feed(bytes.data(), bytes.size());
  service::Frame got;
  ASSERT_EQ(parser.next(&got), service::FrameParser::Result::kFrame);
  EXPECT_EQ(got.type, f.type);
  EXPECT_EQ(got.channel, f.channel);
  EXPECT_EQ(got.seq, f.seq);
  EXPECT_EQ(got.payload, f.payload);
  EXPECT_EQ(parser.next(&got), service::FrameParser::Result::kNeedMore);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(ServiceWire, ParserReassemblesByteDribble) {
  // Three frames delivered one byte at a time: the parser must
  // reassemble every frame across arbitrary recv() boundaries.
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 3; ++i) {
    service::Frame f;
    f.type = service::FrameType::kData;
    f.channel = i;
    f.seq = i * 10;
    f.payload = service::encode_u32(0xa0b0c0d0u + i);
    service::append_frame(stream, f);
  }

  service::FrameParser parser;
  std::vector<service::Frame> got;
  for (const std::uint8_t byte : stream) {
    parser.feed(&byte, 1);
    service::Frame f;
    while (parser.next(&f) == service::FrameParser::Result::kFrame) {
      got.push_back(f);
    }
  }
  ASSERT_EQ(got.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].channel, i);
    EXPECT_EQ(got[i].seq, i * 10);
    std::uint32_t v = 0;
    ASSERT_TRUE(service::decode_u32(got[i].payload, &v));
    EXPECT_EQ(v, 0xa0b0c0d0u + i);
  }
}

TEST(ServiceWire, PayloadCodecsRoundTrip) {
  const std::vector<std::int32_t> codes = {-8, -1, 0, 1, 7, 2147483647,
                                           -2147483647 - 1};
  std::vector<std::int32_t> codes2;
  ASSERT_TRUE(service::decode_codes(service::encode_codes(codes), &codes2));
  EXPECT_EQ(codes2, codes);

  const std::vector<std::int64_t> samples = {0, -1, 8191, -8192,
                                             (1ll << 40), -(1ll << 40)};
  std::vector<std::int64_t> samples2;
  ASSERT_TRUE(
      service::decode_samples(service::encode_samples(samples), &samples2));
  EXPECT_EQ(samples2, samples);

  // Misaligned payloads must be rejected, not mis-parsed.
  std::vector<std::uint8_t> odd(5, 0);
  EXPECT_FALSE(service::decode_codes(odd, &codes2));
  EXPECT_FALSE(service::decode_samples(odd, &samples2));
  std::uint32_t v = 0;
  EXPECT_FALSE(service::decode_u32(odd, &v));
}

TEST(ServiceWire, ParserRejectsCorruption) {
  service::Frame f;
  f.type = service::FrameType::kData;
  f.channel = 3;
  f.payload = service::encode_codes(std::vector<std::int32_t>{1, 2, 3, 4});
  const auto good = service::encode_frame(f);

  {  // bad magic
    auto bytes = good;
    bytes[0] ^= 0xff;
    service::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    service::Frame got;
    EXPECT_EQ(parser.next(&got), service::FrameParser::Result::kBad);
  }
  {  // flipped payload byte -> CRC mismatch
    auto bytes = good;
    bytes.back() ^= 0x01;
    service::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    service::Frame got;
    EXPECT_EQ(parser.next(&got), service::FrameParser::Result::kBad);
  }
  {  // flipped CRC byte
    auto bytes = good;
    bytes[20] ^= 0x10;
    service::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    service::Frame got;
    EXPECT_EQ(parser.next(&got), service::FrameParser::Result::kBad);
  }
  {  // unknown frame type
    auto bytes = good;
    bytes[4] = 0x7f;  // type field; CRC now also wrong, either way kBad
    service::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    service::Frame got;
    EXPECT_EQ(parser.next(&got), service::FrameParser::Result::kBad);
  }
  {  // oversized payload length
    auto bytes = good;
    bytes[16] = 0xff;
    bytes[17] = 0xff;
    bytes[18] = 0xff;
    bytes[19] = 0x7f;
    service::FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    service::Frame got;
    EXPECT_EQ(parser.next(&got), service::FrameParser::Result::kBad);
  }
}

TEST(ServiceWire, Crc32KnownVector) {
  // IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(service::crc32(reinterpret_cast<const std::uint8_t*>(s), 9),
            0xcbf43926u);
}

TEST(ServiceWire, Crc32MatchesBytewiseReferenceAtAllSizes) {
  // The production crc32 dispatches between a bytewise tail, slicing-by-8,
  // and a PCLMULQDQ fold depending on length and CPU; every length around
  // the dispatch thresholds (and several large ones) must agree with the
  // plain bitwise definition.
  const auto reference = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
      }
    }
    return c ^ 0xffffffffu;
  };
  std::mt19937_64 rng(fuzz_seed(99));
  std::vector<std::uint8_t> buf(5000);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t len = 0; len <= 200; ++len) {
    ASSERT_EQ(service::crc32(buf.data(), len), reference(buf.data(), len))
        << "len=" << len;
  }
  for (const std::size_t len : {256u, 1000u, 4096u, 4999u}) {
    for (const std::size_t off : {0u, 1u, 3u}) {
      ASSERT_EQ(service::crc32(buf.data() + off, len - off),
                reference(buf.data() + off, len - off))
          << "len=" << len << " off=" << off;
    }
  }
}

TEST(ServiceWire, ChainConfigRoundTrip) {
  // Full ChainConfig serialization: decode(encode(cfg)) must drive a chain
  // to bit-identical output, and re-encoding the decoded config must give
  // back the same bytes (proving no field is dropped or re-derived).
  decim::ChainConfig cfg = decim::paper_chain_config();
  cfg.scale *= 0.75;            // distinguishable from every preset
  cfg.equalizer_frac_bits = 12;
  const auto blob = service::encode_chain_config(cfg);

  decim::ChainConfig back;
  ASSERT_TRUE(service::decode_chain_config(blob, &back));
  EXPECT_EQ(service::encode_chain_config(back), blob);

  std::mt19937_64 rng(fuzz_seed(5));
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 2048, rng);
  decim::DecimationChain a(cfg);
  decim::DecimationChain b(back);
  EXPECT_EQ(a.process(codes), b.process(codes));

  // A truncated or bit-flipped blob must be rejected, never mis-decoded.
  decim::ChainConfig junk;
  std::vector<std::uint8_t> truncated(blob.begin(), blob.end() - 3);
  EXPECT_FALSE(service::decode_chain_config(truncated, &junk));
  std::vector<std::uint8_t> flipped = blob;
  flipped[0] ^= 0x40;  // breaks the CFG1 magic
  EXPECT_FALSE(service::decode_chain_config(flipped, &junk));
}

TEST(ServiceWire, PresetsAreSharedAndBounded) {
  const auto p0 = service::preset_config(0);
  const auto p1 = service::preset_config(1);
  ASSERT_NE(p0, nullptr);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(service::preset_config(service::kNumPresets), nullptr);
  // Designed once, shared thereafter.
  EXPECT_EQ(service::preset_config(0).get(), p0.get());
  EXPECT_EQ(service::preset_config(1).get(), p1.get());
}

// --- session lifecycle over a live server --------------------------------

TEST_F(ServiceTest, LifecycleOpenStreamReconfigureDrainClose) {
  service::Server server(test_options("life"));
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());

  const std::uint32_t ch = 5;
  std::mt19937_64 rng(fuzz_seed(301));
  const auto part1 =
      stimulus_codes(verify::StimulusClass::kModulator, 2048, rng);
  const auto part2 = stimulus_codes(verify::StimulusClass::kPrbs, 1024, rng);

  // Reference: the exact sequence of chain operations the server performs.
  const auto cfg0 = service::preset_config(0);
  const auto cfg1 = service::preset_config(1);
  std::vector<std::int64_t> ref;
  decim::DecimationChain chain(*cfg0);
  for (auto s : chain.process(part1)) ref.push_back(s);
  decim::DecimationChain chain2(*cfg1);  // reconfigure = fresh chain
  for (auto s : chain2.process(part2)) ref.push_back(s);
  const auto pad = runtime::SessionRuntime::drain_pad_frames(chain2);
  for (auto s : chain2.process(std::vector<std::int32_t>(pad, 0))) {
    ref.push_back(s);
  }

  ASSERT_TRUE(client->open(ch, 0));
  ASSERT_TRUE(client->wait_ack_count(ch, 1, kWait)) << "OPEN not acked";
  ASSERT_TRUE(client->send_data(ch, part1));
  ASSERT_TRUE(client->reconfigure(ch, 1));
  ASSERT_TRUE(client->wait_ack_count(ch, 2, kWait)) << "CONFIG not acked";
  ASSERT_TRUE(client->send_data(ch, part2));
  ASSERT_TRUE(client->drain(ch));
  ASSERT_TRUE(client->wait_drained(ch, 1, kWait)) << "DRAIN marker missing";
  ASSERT_TRUE(client->close_channel(ch));
  ASSERT_TRUE(client->wait_ack_count(ch, 3, kWait)) << "CLOSE not acked";

  EXPECT_EQ(client->samples(ch), ref);
  EXPECT_TRUE(client->errors().empty());

  // The channel is gone: further DATA is answered with NOT_OPEN.
  ASSERT_TRUE(client->send_data(ch, part2));
  EXPECT_TRUE(client->wait_error(service::ErrorCode::kNotOpen, kWait));

  client.reset();
  server.stop();
}

TEST_F(ServiceTest, ServedOutputBitExactAllStimulusClasses) {
  const std::uint32_t seed = fuzz_seed(313);
  constexpr std::size_t kChannels = 3;
  constexpr std::size_t kFrames = 4096;
  constexpr std::size_t kChunk = 512;  // 8 DATA frames/channel: state carry

  for (int ci = 0; ci < verify::kNumStimulusClasses; ++ci) {
    const auto cls = static_cast<verify::StimulusClass>(ci);
    std::mt19937_64 rng(seed + static_cast<std::uint32_t>(ci));
    std::vector<std::vector<std::int32_t>> codes;
    for (std::size_t c = 0; c < kChannels; ++c) {
      codes.push_back(stimulus_codes(cls, kFrames, rng));
    }

    // Reference: scalar chains, counting fx requantization events.
    obs::Registry::instance().reset_all();
    const auto cfg = service::preset_config(0);
    std::vector<std::vector<std::int64_t>> ref;
    for (std::size_t c = 0; c < kChannels; ++c) {
      decim::DecimationChain chain(*cfg);
      ref.push_back(chain.process(codes[c]));
    }
    const auto ref_fx = fx_snapshot();

    obs::Registry::instance().reset_all();
    service::Server server(test_options("exact"));
    server.start();
    auto client = service::Client::connect_unix(server.unix_path());
    for (std::size_t c = 0; c < kChannels; ++c) {
      ASSERT_TRUE(client->open(static_cast<std::uint32_t>(c), 0));
    }
    for (std::size_t off = 0; off < kFrames; off += kChunk) {
      for (std::size_t c = 0; c < kChannels; ++c) {
        ASSERT_TRUE(client->send_data(
            static_cast<std::uint32_t>(c),
            std::span<const std::int32_t>(codes[c]).subspan(off, kChunk)));
      }
    }
    for (std::size_t c = 0; c < kChannels; ++c) {
      ASSERT_TRUE(client->wait_sample_count(static_cast<std::uint32_t>(c),
                                            ref[c].size(), kWait))
          << "class " << verify::stimulus_name(cls) << " channel " << c;
      EXPECT_EQ(client->samples(static_cast<std::uint32_t>(c)), ref[c])
          << "class " << verify::stimulus_name(cls) << " channel " << c;
    }
    EXPECT_TRUE(client->errors().empty());
    client.reset();
    server.stop();

    // Same samples AND the same per-sample saturate/round decisions.
    EXPECT_EQ(fx_snapshot(), ref_fx)
        << "class " << verify::stimulus_name(cls);
  }
}

TEST_F(ServiceTest, DeterministicAcrossRuntimeThreadCounts) {
  const std::uint32_t seed = fuzz_seed(331);
  constexpr std::size_t kChannels = 8;
  constexpr std::size_t kFrames = 2048;
  constexpr std::size_t kChunk = 256;
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::int32_t>> codes;
  for (std::size_t c = 0; c < kChannels; ++c) {
    codes.push_back(
        stimulus_codes(verify::StimulusClass::kUniform, kFrames, rng));
  }

  std::vector<std::vector<std::vector<std::int64_t>>> results;
  for (const char* threads : {"1", "2", "8"}) {
    ::setenv("DSADC_RUNTIME_THREADS", threads, 1);
    service::ServerOptions o;
    o.unix_path = service::net::unique_socket_path("det");
    o.workers = 0;  // resolve from DSADC_RUNTIME_THREADS
    o.shards = 4;
    service::Server server(o);
    server.start();
    auto client = service::Client::connect_unix(server.unix_path());
    for (std::size_t c = 0; c < kChannels; ++c) {
      ASSERT_TRUE(client->open(static_cast<std::uint32_t>(c), 0));
    }
    for (std::size_t off = 0; off < kFrames; off += kChunk) {
      for (std::size_t c = 0; c < kChannels; ++c) {
        ASSERT_TRUE(client->send_data(
            static_cast<std::uint32_t>(c),
            std::span<const std::int32_t>(codes[c]).subspan(off, kChunk)));
      }
    }
    std::vector<std::vector<std::int64_t>> run;
    for (std::size_t c = 0; c < kChannels; ++c) {
      ASSERT_TRUE(client->wait_sample_count(static_cast<std::uint32_t>(c),
                                            (kFrames / 16), kWait))
          << "threads=" << threads << " channel " << c;
      run.push_back(client->samples(static_cast<std::uint32_t>(c)));
    }
    EXPECT_TRUE(client->errors().empty()) << "threads=" << threads;
    results.push_back(std::move(run));
    client.reset();
    server.stop();
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i], results[0])
        << "worker count must not change served samples";
  }
}

TEST_F(ServiceTest, TcpRoundTrip) {
  service::ServerOptions o;
  o.tcp = true;  // ephemeral port; no unix listener
  o.workers = 2;
  service::Server server(o);
  server.start();
  ASSERT_NE(server.tcp_port(), 0);

  std::mt19937_64 rng(fuzz_seed(347));
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 1024, rng);
  decim::DecimationChain chain(*service::preset_config(0));
  const auto ref = chain.process(codes);

  auto client = service::Client::connect_tcp("127.0.0.1", server.tcp_port());
  const std::uint32_t ch = 9;
  ASSERT_TRUE(client->open(ch, 0));
  ASSERT_TRUE(client->send_data(ch, codes));
  ASSERT_TRUE(client->wait_sample_count(ch, ref.size(), kWait));
  EXPECT_EQ(client->samples(ch), ref);
  EXPECT_TRUE(client->errors().empty());
  client.reset();
  server.stop();
}

TEST_F(ServiceTest, TenantsAreIsolatedByConnection) {
  // Two connections use the SAME channel id with different data; each
  // must get exactly its own stream back (session key includes conn id).
  service::Server server(test_options("iso"));
  server.start();

  std::mt19937_64 rng(fuzz_seed(353));
  const auto codes_a =
      stimulus_codes(verify::StimulusClass::kModulator, 2048, rng);
  const auto codes_b = stimulus_codes(verify::StimulusClass::kPrbs, 2048, rng);
  const auto cfg = service::preset_config(0);
  decim::DecimationChain chain_a(*cfg), chain_b(*cfg);
  const auto ref_a = chain_a.process(codes_a);
  const auto ref_b = chain_b.process(codes_b);

  auto a = service::Client::connect_unix(server.unix_path());
  auto b = service::Client::connect_unix(server.unix_path());
  const std::uint32_t ch = 77;
  ASSERT_TRUE(a->open(ch, 0));
  ASSERT_TRUE(b->open(ch, 0));
  ASSERT_TRUE(a->send_data(ch, codes_a));
  ASSERT_TRUE(b->send_data(ch, codes_b));
  ASSERT_TRUE(a->wait_sample_count(ch, ref_a.size(), kWait));
  ASSERT_TRUE(b->wait_sample_count(ch, ref_b.size(), kWait));
  EXPECT_EQ(a->samples(ch), ref_a);
  EXPECT_EQ(b->samples(ch), ref_b);
  EXPECT_TRUE(a->errors().empty());
  EXPECT_TRUE(b->errors().empty());
  a.reset();
  b.reset();
  server.stop();
}

TEST_F(ServiceTest, FinishedConnectionsAreReaped) {
  // A server that accepts connection after connection (a load generator's
  // epochs, any long-lived deployment) must not keep the finished ones:
  // each used to hold its receive buffer and its socket until stop().
  service::Server server(test_options("reap"));
  server.start();
  std::mt19937_64 rng(fuzz_seed(71));
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 2048, rng);
  const auto ref =
      decim::DecimationChain(*service::preset_config(0)).process(codes);
  constexpr std::size_t kConns = 16;
  for (std::size_t i = 0; i < kConns; ++i) {
    auto client = service::Client::connect_unix(server.unix_path());
    ASSERT_TRUE(client->open(1, 0));
    ASSERT_TRUE(client->send_data(1, codes));
    ASSERT_TRUE(client->wait_sample_count(1, ref.size(), kWait));
    EXPECT_EQ(client->samples(1), ref);
  }
  // A connection retires once the server has seen its EOF and flushed it;
  // the next accept reaps whatever has retired by then. Short-lived
  // probes drive the accepts.
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  std::size_t held = server.connection_count();
  while (held > 2 && std::chrono::steady_clock::now() < deadline) {
    auto probe = service::Client::connect_unix(server.unix_path());
    std::this_thread::sleep_for(5ms);
    held = server.connection_count();
  }
  EXPECT_LE(held, 2u) << "finished connections still held";
  server.stop();
}

TEST_F(ServiceTest, PerTenantMetricsAccumulate) {
  service::Server server(test_options("metrics"));
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());

  std::mt19937_64 rng(fuzz_seed(359));
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 512, rng);
  const std::uint32_t ch = 4;
  ASSERT_TRUE(client->open(ch, 0));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client->send_data(ch, codes));
  ASSERT_TRUE(client->wait_sample_count(ch, 3 * codes.size() / 16, kWait));
  client.reset();
  server.stop();

  auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("service.accepted").value(), 3u);
  EXPECT_EQ(reg.counter("service.accepted.ch4").value(), 3u);
  EXPECT_EQ(reg.counter("service.shed").value(), 0u);
  EXPECT_EQ(reg.counter("service.connections").value(), 1u);
  EXPECT_GT(reg.gauge("service.throughput_sps.ch4").value(), 0.0);
}

TEST_F(ServiceTest, OpenWithSerializedConfigServesBitExact) {
  // OPEN and CONFIG carrying a full serialized ChainConfig (not a preset
  // id): the served stream must match a local chain built from the same
  // config, before and after an over-the-wire reconfigure.
  service::Server server(test_options("cfgwire"));
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());

  decim::ChainConfig cfg = decim::paper_chain_config();
  cfg.scale *= 0.75;
  std::mt19937_64 rng(fuzz_seed(41));
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 1024, rng);
  decim::DecimationChain ref(cfg);
  const auto expect1 = ref.process(codes);

  const std::uint32_t ch = 9;
  ASSERT_TRUE(client->open_config(ch, cfg));
  ASSERT_TRUE(client->send_data(ch, codes));
  ASSERT_TRUE(client->wait_sample_count(ch, expect1.size(), kWait));
  EXPECT_EQ(client->samples(ch), expect1);

  // Reconfigure with another serialized config: fresh chain, new scale.
  decim::ChainConfig cfg2 = cfg;
  cfg2.scale *= 0.5;
  decim::DecimationChain ref2(cfg2);
  const auto expect2 = ref2.process(codes);
  ASSERT_TRUE(client->reconfigure_config(ch, cfg2));
  ASSERT_TRUE(client->send_data(ch, codes));
  ASSERT_TRUE(
      client->wait_sample_count(ch, expect1.size() + expect2.size(), kWait));
  auto got = client->samples(ch);
  got.erase(got.begin(),
            got.begin() + static_cast<std::ptrdiff_t>(expect1.size()));
  EXPECT_EQ(got, expect2);
  EXPECT_TRUE(client->errors().empty());
  client.reset();
  server.stop();
}

TEST_F(ServiceTest, RefusedConfigGetsErrorAndSessionKeepsServing) {
  // hbf_coeff_frac_bits = 65 puts the HBF product requantize at a 63-bit
  // shift, which the chain refuses at construction. A CONFIG carrying it
  // is answered with ERROR, the session keeps its old chain (state and
  // all), and the worker goes on serving it; an OPEN carrying it is
  // refused the same way and leaves no session behind.
  service::Server server(test_options("refuse"));
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());

  const decim::ChainConfig cfg = decim::paper_chain_config();
  decim::ChainConfig bad = cfg;
  bad.hbf_coeff_frac_bits = 65;
  std::mt19937_64 rng(fuzz_seed(43));
  const auto part1 =
      stimulus_codes(verify::StimulusClass::kModulator, 1024, rng);
  const auto part2 = stimulus_codes(verify::StimulusClass::kPrbs, 1024, rng);
  decim::DecimationChain ref(cfg);
  auto expect = ref.process(part1);
  const auto tail = ref.process(part2);
  expect.insert(expect.end(), tail.begin(), tail.end());

  const std::uint32_t ch = 3;
  ASSERT_TRUE(client->open_config(ch, cfg));
  ASSERT_TRUE(client->wait_ack_count(ch, 1, kWait)) << "OPEN not acked";
  ASSERT_TRUE(client->send_data(ch, part1));
  ASSERT_TRUE(client->reconfigure_config(ch, bad));
  ASSERT_TRUE(client->wait_error(service::ErrorCode::kInternal, kWait));
  ASSERT_TRUE(client->send_data(ch, part2));
  ASSERT_TRUE(client->wait_sample_count(ch, expect.size(), kWait));
  EXPECT_EQ(client->samples(ch), expect);
  const auto errors = client->errors();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].first, ch);

  const std::uint32_t ch2 = 4;
  ASSERT_TRUE(client->open_config(ch2, bad));
  ASSERT_TRUE(client->send_data(ch2, part1));
  EXPECT_TRUE(client->wait_error(service::ErrorCode::kNotOpen, kWait));
  client.reset();
  server.stop();
}

TEST_F(ServiceTest, InconsistentHbfCountsRefusedAndServerKeepsServing) {
  // A CFG1 frame carries hbf.n1/n2 apart from the f1/f2 CSD coefficients.
  // Counts that disagree with them would make the halfband read past its
  // coefficient and history arrays on a shared worker. The HBF refuses
  // them at construction, so each such OPEN gets an ERROR frame and leaves
  // no session, and the server goes on serving a good session bit-exactly.
  service::Server server(test_options("hbf_counts"));
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());

  const decim::ChainConfig cfg = decim::paper_chain_config();
  std::vector<decim::ChainConfig> bad(4, cfg);
  bad[0].hbf.n1 += 1;
  bad[1].hbf.n2 += 5;
  bad[2].hbf.n1 -= 1;
  bad[3].hbf.n2 = 0;
  std::mt19937_64 rng(fuzz_seed(47));
  const auto codes =
      stimulus_codes(verify::StimulusClass::kModulator, 2048, rng);
  const auto expect = testutil::PushChain(cfg).process(codes);

  std::set<std::uint32_t> refused;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const auto ch = static_cast<std::uint32_t>(10 + i);
    ASSERT_TRUE(client->open_config(ch, bad[i]));
    refused.insert(ch);
  }
  const std::uint32_t good = 3;
  ASSERT_TRUE(client->open_config(good, cfg));
  ASSERT_TRUE(client->send_data(good, codes));
  ASSERT_TRUE(client->wait_sample_count(good, expect.size(), kWait));
  EXPECT_EQ(client->samples(good), expect);

  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (client->errors().size() < refused.size() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  std::set<std::uint32_t> errored;
  for (const auto& [ch, code] : client->errors()) {
    EXPECT_EQ(code, service::ErrorCode::kInternal) << "channel " << ch;
    errored.insert(ch);
  }
  EXPECT_EQ(errored, refused);
  // DATA on a refused channel finds no session.
  ASSERT_TRUE(client->send_data(10, codes));
  EXPECT_TRUE(client->wait_error(service::ErrorCode::kNotOpen, kWait));
  client.reset();
  server.stop();
}

TEST_F(ServiceTest, NonFiniteOrHugeScaleRefusedAndSessionKeepsServing) {
  // The scaler constant in a CFG1 frame is a raw f64. NaN and inf used to
  // reach the CSD encoder's int conversion, and 1e30 gave digit shifts
  // that overflow the shift-add network, all on a shared worker. The
  // scaler now refuses them at construction: a CONFIG carrying one gets an
  // ERROR frame and its session keeps serving on its old chain; an OPEN
  // carrying one gets an ERROR frame and leaves no session.
  service::Server server(test_options("bad_scale"));
  server.start();
  auto client = service::Client::connect_unix(server.unix_path());

  const decim::ChainConfig cfg = decim::paper_chain_config();
  const double bad_scales[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               1e30};
  std::mt19937_64 rng(fuzz_seed(61));
  const std::size_t n_parts = std::size(bad_scales) + 1;
  std::vector<std::vector<std::int32_t>> parts;
  for (std::size_t i = 0; i < n_parts; ++i) {
    parts.push_back(
        stimulus_codes(verify::StimulusClass::kModulator, 1024, rng));
  }
  decim::DecimationChain ref(cfg);
  std::vector<std::int64_t> expect;
  for (const auto& part : parts) {
    const auto out = ref.process(part);
    expect.insert(expect.end(), out.begin(), out.end());
  }

  const std::uint32_t good = 3;
  ASSERT_TRUE(client->open_config(good, cfg));
  ASSERT_TRUE(client->wait_ack_count(good, 1, kWait)) << "OPEN not acked";
  ASSERT_TRUE(client->send_data(good, parts[0]));
  for (std::size_t i = 0; i < std::size(bad_scales); ++i) {
    decim::ChainConfig bad = cfg;
    bad.scale = bad_scales[i];
    const auto refused = static_cast<std::uint32_t>(10 + i);
    ASSERT_TRUE(client->open_config(refused, bad));
    ASSERT_TRUE(client->reconfigure_config(good, bad));
    ASSERT_TRUE(client->send_data(good, parts[i + 1]));
  }
  ASSERT_TRUE(client->wait_sample_count(good, expect.size(), kWait));
  EXPECT_EQ(client->samples(good), expect);

  // One ERROR per refused OPEN and one per refused CONFIG.
  const std::size_t want_errors = 2 * std::size(bad_scales);
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (client->errors().size() < want_errors &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  std::map<std::uint32_t, std::size_t> errors_by_channel;
  for (const auto& [ch, code] : client->errors()) {
    EXPECT_EQ(code, service::ErrorCode::kInternal) << "channel " << ch;
    ++errors_by_channel[ch];
  }
  EXPECT_EQ(errors_by_channel[good], std::size(bad_scales));
  for (std::size_t i = 0; i < std::size(bad_scales); ++i) {
    EXPECT_EQ(errors_by_channel[static_cast<std::uint32_t>(10 + i)], 1u);
  }
  // DATA on a refused channel finds no session.
  ASSERT_TRUE(client->send_data(10, parts[0]));
  EXPECT_TRUE(client->wait_error(service::ErrorCode::kNotOpen, kWait));
  client.reset();
  server.stop();
}

TEST_F(ServiceTest, MacOverflowConfigsRefusedAndSessionKeepsServing) {
  // Configs whose multiply-accumulates overflow int64 on a shared worker:
  // a NaN equalizer tap (INT64_MIN x -1 in fir_emit), equalizer taps
  // x1e12 or at 60 frac bits (the equalizer accumulator), and 55 or 62
  // HBF coefficient frac bits (the hbf_g2 products). The stages refuse
  // them at construction, from the formats' worst-case widths: a CONFIG
  // carrying one gets an ERROR frame and its session keeps serving on its
  // old chain; an OPEN carrying one gets an ERROR frame and leaves no
  // session. INT32_MAX HBF coefficient frac bits would overflow the int
  // frac sum of the HBF product requantizer; the tap range check refuses
  // them first.
  const decim::ChainConfig cfg = decim::paper_chain_config();
  std::vector<decim::ChainConfig> bad(6, cfg);
  bad[0].equalizer_taps[7] = std::numeric_limits<double>::quiet_NaN();
  for (double& t : bad[1].equalizer_taps) t *= 1e12;
  bad[2].equalizer_frac_bits = 60;
  bad[3].hbf_coeff_frac_bits = 55;
  bad[4].hbf_coeff_frac_bits = 62;
  bad[5].hbf_coeff_frac_bits = std::numeric_limits<std::int32_t>::max();
  expect_refused_while_serving("mac_overflow", bad, 67);
}

TEST_F(ServiceTest, FormatWidthConfigsRefusedAndSessionKeepsServing) {
  // Stage formats whose width is outside [1, 62]: the saturation bounds
  // 2^(width-1) would be a bad shift or negation. soa::Requant checks the
  // width before it computes the bounds, so each stage refuses the config
  // at construction with an ERROR frame instead of reaching the UB. The
  // input format feeds no requantizer, so ChainBank applies the same rule
  // to it rather than serve codes of a meaningless width.
  const decim::ChainConfig cfg = decim::paper_chain_config();
  std::vector<decim::ChainConfig> bad(6, cfg);
  bad[0].hbf_in_format.width = 64;
  bad[1].hbf_out_format.width = 0;
  bad[2].scaler_out_format.width = 80;
  bad[3].output_format.width = -3;
  bad[4].input_format.width = 0;
  bad[5].input_format.width = 70;
  expect_refused_while_serving("format_width", bad, 73);
}

TEST_F(ServiceTest, LockstepCohortServesBitExactOverWire) {
  // OPENs with the LOCKSTEP flag are accepted and served like any other:
  // two connections x 16 lockstep-flagged channels on the same config
  // stream equal-length blocks, and every channel must see the exact
  // push()-reference samples.
  service::Server server(test_options("lockstep"));
  server.start();
  constexpr std::size_t kConns = 2;
  constexpr std::size_t kPerConn = 16;
  constexpr std::size_t kBlocks = 4;
  constexpr std::size_t kFrames = 256;

  std::mt19937_64 rng(fuzz_seed(77));
  std::vector<std::vector<std::int32_t>> blocks;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const auto cls = static_cast<verify::StimulusClass>(
        b % verify::kNumStimulusClasses);
    blocks.push_back(stimulus_codes(cls, kFrames, rng));
  }

  std::vector<std::unique_ptr<service::Client>> clients;
  for (std::size_t c = 0; c < kConns; ++c) {
    clients.push_back(service::Client::connect_unix(server.unix_path()));
    for (std::size_t k = 0; k < kPerConn; ++k) {
      const auto ch = static_cast<std::uint32_t>(c * kPerConn + k);
      ASSERT_TRUE(clients[c]->open(ch, 0, /*lockstep=*/true));
    }
  }
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t c = 0; c < kConns; ++c) {
      for (std::size_t k = 0; k < kPerConn; ++k) {
        const auto ch = static_cast<std::uint32_t>(c * kPerConn + k);
        ASSERT_TRUE(clients[c]->send_data(ch, blocks[b]));
      }
    }
  }

  testutil::PushChain ref(*service::preset_config(0));
  std::vector<std::int64_t> expect;
  for (const auto& block : blocks) {
    const auto out = ref.process(block);
    expect.insert(expect.end(), out.begin(), out.end());
  }

  for (std::size_t c = 0; c < kConns; ++c) {
    for (std::size_t k = 0; k < kPerConn; ++k) {
      const auto ch = static_cast<std::uint32_t>(c * kPerConn + k);
      ASSERT_TRUE(clients[c]->wait_sample_count(ch, expect.size(), kWait))
          << "ch=" << ch;
      EXPECT_EQ(clients[c]->samples(ch), expect) << "ch=" << ch;
    }
    EXPECT_TRUE(clients[c]->errors().empty());
  }
  clients.clear();
  server.stop();
}

}  // namespace
