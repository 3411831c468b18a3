// Multi-channel runtime: bit-exactness against the push() oracle of
// tests/push_chain.h (outputs AND fx saturation/round counter totals),
// determinism across worker counts, and the MPMC ring protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/decimator/chain.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/runtime/multichannel.h"
#include "src/runtime/spsc.h"
#include "src/verify/stimulus.h"
#include "tests/push_chain.h"

namespace {

using namespace dsadc;

std::uint32_t fuzz_seed(std::uint32_t fallback) {
  if (const char* env = std::getenv("DSADC_FUZZ_SEED")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<std::uint32_t>(v);
  }
  return fallback;
}

void set_runtime_threads(const char* value) {
  if (value == nullptr) {
    ::unsetenv("DSADC_RUNTIME_THREADS");
  } else {
    ::setenv("DSADC_RUNTIME_THREADS", value, 1);
  }
}

/// Modulator codes for one channel from the shared stimulus library.
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

using testutil::fx_snapshot;
using testutil::PushChain;

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::instance().reset_all();
    set_runtime_threads("1");
  }
  void TearDown() override { set_runtime_threads(nullptr); }
};

// --- MPMC ring (service admission queues) -------------------------------

TEST(MpmcRing, SingleProducerFifoOrder) {
  // The ordering contract the service leans on: one producer's pushes
  // (a connection reader) leave the ring in push order even with
  // concurrent consumers... here checked with one consumer for a strict
  // sequence, under capacity pressure.
  runtime::MpmcRing<std::size_t> ring(4);
  constexpr std::size_t kN = 20000;
  std::thread producer([&ring] {
    for (std::size_t i = 0; i < kN; ++i) ring.push(i);
    ring.close();
  });
  std::size_t expected = 0;
  std::size_t v = 0;
  while (ring.pop(v)) {
    ASSERT_EQ(v, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kN);
}

TEST(MpmcRing, ManyProducersManyConsumersLoseNothing) {
  runtime::MpmcRing<std::size_t> ring(16);
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::size_t kPerProducer = 5000;

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ring.push(p * kPerProducer + i + 1);  // distinct nonzero values
      }
    });
  }
  std::vector<std::thread> consumers;
  std::vector<std::uint64_t> sums(kConsumers, 0);
  std::vector<std::size_t> counts(kConsumers, 0);
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&ring, &sums, &counts, c] {
      std::size_t v = 0;
      while (ring.pop(v)) {
        sums[c] += v;
        ++counts[c];
      }
    });
  }
  for (auto& t : producers) t.join();
  ring.close();
  for (auto& t : consumers) t.join();

  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  std::uint64_t sum = 0;
  std::size_t count = 0;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    sum += sums[c];
    count += counts[c];
  }
  EXPECT_EQ(count, kTotal);
  EXPECT_EQ(sum, kTotal * (kTotal + 1) / 2) << "every element exactly once";
}

TEST(MpmcRing, ProducerCloseWhileConsumerBlocksDeliversFinalBlock) {
  // The close-flag race the service depends on: a consumer blocked in
  // pop() on an empty ring must receive an element pushed immediately
  // before close() -- the final partial block -- and only then get
  // end-of-stream. No deadlock, no drop, on any interleaving.
  for (int trial = 0; trial < 200; ++trial) {
    runtime::MpmcRing<int> ring(8);
    std::atomic<bool> consumer_ready{false};
    std::vector<int> got;
    std::thread consumer([&] {
      consumer_ready.store(true);
      int v = 0;
      while (ring.pop(v)) got.push_back(v);  // blocks on empty
    });
    while (!consumer_ready.load()) std::this_thread::yield();
    int final_block = 41;
    ASSERT_TRUE(ring.try_push(final_block));
    ring.close();  // push-then-close: EOS after the final element
    consumer.join();
    ASSERT_EQ(got, std::vector<int>{41}) << "trial " << trial;
  }
}

TEST(MpmcRing, ConsumerCloseUnblocksFullRingProducer) {
  // The other direction: a producer stuck in push() on a full ring whose
  // consumer cancels must return false instead of spinning forever.
  runtime::MpmcRing<int> ring(2);
  for (int i = 0; i < 2; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(v));
  }
  std::atomic<bool> pushed{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result.store(ring.push(99));  // full: blocks until close
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load()) << "push should be blocked on a full ring";
  ring.close();
  producer.join();
  EXPECT_FALSE(push_result.load()) << "push after close must report failure";
  int v = 0;
  EXPECT_FALSE(ring.try_push(v)) << "pushes fail once closed";
}

TEST(MpmcRing, CapacityOneRoundsUpToTwo) {
  // Regression: a 1-slot Vyukov ring lets a second push overwrite the
  // unconsumed element and livelocks the consumer; capacity must floor
  // at 2 so a capacity-1 request still yields a correct queue.
  runtime::MpmcRing<int> ring(1);
  EXPECT_EQ(ring.capacity(), 2u);
  int v = 10;
  ASSERT_TRUE(ring.try_push(v));
  v = 20;
  ASSERT_TRUE(ring.try_push(v));
  v = 30;
  EXPECT_FALSE(ring.try_push(v)) << "full at the rounded capacity";
  int out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 10);
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 20);
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(MpmcRing, TryPushFailsOnlyWhenFullOrClosed) {
  runtime::MpmcRing<int> ring(2);
  int v = 1;
  EXPECT_TRUE(ring.try_push(v));
  v = 2;
  EXPECT_TRUE(ring.try_push(v));
  v = 3;
  EXPECT_FALSE(ring.try_push(v)) << "full";
  int out = 0;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 1);
  v = 3;
  EXPECT_TRUE(ring.try_push(v)) << "slot reusable after pop";
  ring.close();
  v = 4;
  EXPECT_FALSE(ring.try_push(v)) << "closed";
  EXPECT_TRUE(ring.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(ring.pop(out)) << "close drains remaining elements";
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(ring.pop(out)) << "closed and drained";
}

// --- Multi-channel SoA runtime ------------------------------------------

TEST_F(RuntimeTest, MultiChannelMatchesScalarChainAllStimuli) {
  const auto cfg = decim::paper_chain_config();
  constexpr std::size_t kChannels = 10;
  constexpr std::size_t kFrames = 4096;
  const std::uint32_t seed = fuzz_seed(11);

  for (int ci = 0; ci < verify::kNumStimulusClasses; ++ci) {
    const auto cls = static_cast<verify::StimulusClass>(ci);
    std::mt19937_64 rng(seed + static_cast<std::uint32_t>(ci));
    std::vector<std::vector<std::int32_t>> codes;
    for (std::size_t c = 0; c < kChannels; ++c) {
      codes.push_back(stimulus_codes(cls, kFrames, rng));
    }

    // Reference: one push() oracle per channel, counting fx events.
    obs::Registry::instance().reset_all();
    std::vector<std::vector<std::int64_t>> ref;
    for (std::size_t c = 0; c < kChannels; ++c) {
      ref.push_back(PushChain(cfg).process(codes[c]));
    }
    const auto ref_fx = fx_snapshot();

    obs::Registry::instance().reset_all();
    runtime::MultiChannelRuntime rt(cfg, kChannels);
    const auto got = rt.process(codes);
    const auto got_fx = fx_snapshot();

    ASSERT_EQ(got.size(), kChannels);
    for (std::size_t c = 0; c < kChannels; ++c) {
      ASSERT_EQ(got[c].size(), ref[c].size())
          << "class " << verify::stimulus_name(cls) << " channel " << c;
      for (std::size_t i = 0; i < ref[c].size(); ++i) {
        ASSERT_EQ(got[c][i], ref[c][i])
            << "class " << verify::stimulus_name(cls) << " channel " << c
            << " sample " << i;
      }
    }
    EXPECT_EQ(got_fx, ref_fx) << "class " << verify::stimulus_name(cls);
  }
}

TEST_F(RuntimeTest, MultiChannelStreamingMatchesScalarTicks) {
  // Two consecutive process() ticks must carry state exactly like two
  // process() calls on persistent push() oracles.
  const auto cfg = decim::paper_chain_config();
  constexpr std::size_t kChannels = 9;
  const std::uint32_t seed = fuzz_seed(23);
  std::mt19937_64 rng(seed);

  std::vector<std::vector<std::int32_t>> tick1, tick2;
  for (std::size_t c = 0; c < kChannels; ++c) {
    tick1.push_back(
        stimulus_codes(verify::StimulusClass::kModulator, 1000, rng));
    tick2.push_back(stimulus_codes(verify::StimulusClass::kPrbs, 1333, rng));
  }

  std::vector<PushChain> chains;
  for (std::size_t c = 0; c < kChannels; ++c) chains.emplace_back(cfg);
  runtime::MultiChannelRuntime rt(cfg, kChannels);

  for (const auto* tick : {&tick1, &tick2}) {
    const auto got = rt.process(*tick);
    for (std::size_t c = 0; c < kChannels; ++c) {
      const auto ref = chains[c].process((*tick)[c]);
      ASSERT_EQ(got[c], ref) << "channel " << c;
    }
  }
}

TEST_F(RuntimeTest, MultiChannelDeterministicAcrossWorkerCounts) {
  const auto cfg = decim::paper_chain_config();
  constexpr std::size_t kChannels = 16;
  const std::uint32_t seed = fuzz_seed(37);
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::int32_t>> codes;
  for (std::size_t c = 0; c < kChannels; ++c) {
    codes.push_back(
        stimulus_codes(verify::StimulusClass::kUniform, 4096, rng));
  }

  std::vector<std::vector<std::vector<std::int64_t>>> results;
  for (const char* threads : {"1", "2", "8"}) {
    set_runtime_threads(threads);
    runtime::MultiChannelRuntime rt(cfg, kChannels);
    results.push_back(rt.process(codes));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i], results[0])
        << "worker count must not change results";
  }
}

TEST_F(RuntimeTest, MultiChannelFuzzMatchesScalar) {
  const auto cfg = decim::paper_chain_config();
  const std::uint32_t seed = fuzz_seed(101);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> chan_dist(1, 19);
  std::uniform_int_distribution<std::size_t> len_dist(64, 3000);

  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t channels = chan_dist(rng);
    const std::size_t frames = len_dist(rng);
    const auto cls = verify::random_stimulus_class(rng);
    std::vector<std::vector<std::int32_t>> codes;
    for (std::size_t c = 0; c < channels; ++c) {
      codes.push_back(stimulus_codes(cls, frames, rng));
    }
    runtime::MultiChannelRuntime rt(cfg, channels);
    const auto got = rt.process(codes);
    for (std::size_t c = 0; c < channels; ++c) {
      const auto ref = PushChain(cfg).process(codes[c]);
      ASSERT_EQ(got[c], ref)
          << "trial " << trial << " channel " << c << " class "
          << verify::stimulus_name(cls) << " (DSADC_FUZZ_SEED=" << seed
          << ")";
    }
  }
}

TEST_F(RuntimeTest, ConcurrentScalarChainsSumToSequentialCounters) {
  // Scalar chains on two threads flush their per-block fx tallies into
  // the same shared counters at once. The per-site deltas must add up to
  // what the push() oracles count over the same two streams (and the
  // outputs must not depend on the interleaving).
  if (!obs::kCompiledOn) GTEST_SKIP() << "instrumentation compiled out";
  decim::ChainConfig cfg = decim::paper_chain_config();
  cfg.scale *= 4.0;  // saturates, so the saturate counters move too
  std::mt19937_64 rng(fuzz_seed(211));
  const std::vector<std::vector<std::int32_t>> codes = {
      stimulus_codes(verify::StimulusClass::kModulator, 1 << 14, rng),
      stimulus_codes(verify::StimulusClass::kOverloadRamp, 1 << 14, rng)};
  const auto run = [&](std::size_t t) {
    decim::DecimationChain chain(cfg);
    std::vector<std::int64_t> out;
    for (std::size_t pos = 0; pos < codes[t].size(); pos += 1000) {
      const std::size_t n = std::min<std::size_t>(1000, codes[t].size() - pos);
      const auto part = chain.process(
          std::span<const std::int32_t>(codes[t]).subspan(pos, n));
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };

  obs::Registry::instance().reset_all();
  const std::vector<std::vector<std::int64_t>> want = {
      PushChain(cfg).process(codes[0]), PushChain(cfg).process(codes[1])};
  const auto want_fx = fx_snapshot();
  ASSERT_GT(obs::Registry::instance().counter_total("fx.saturate."), 0u);

  obs::Registry::instance().reset_all();
  std::vector<std::vector<std::int64_t>> got(2);
  std::thread other([&] { got[1] = run(1); });
  got[0] = run(0);
  other.join();
  EXPECT_EQ(got, want);
  EXPECT_EQ(fx_snapshot(), want_fx);
}

TEST_F(RuntimeTest, PerChannelThroughputGaugesArePublished) {
  const auto cfg = decim::paper_chain_config();
  const std::uint32_t seed = fuzz_seed(163);
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::int32_t>> codes;
  for (std::size_t c = 0; c < 3; ++c) {
    codes.push_back(
        stimulus_codes(verify::StimulusClass::kPrbs, 2048, rng));
  }
  obs::Registry::instance().reset_all();
  runtime::MultiChannelRuntime rt(cfg, 3);
  (void)rt.process(codes);
  auto& reg = obs::Registry::instance();
  for (std::size_t c = 0; c < 3; ++c) {
    const std::string ch = std::to_string(c);
    EXPECT_EQ(reg.counter("runtime.samples.ch" + ch).value(), 2048u);
    EXPECT_GT(reg.gauge("runtime.throughput_sps.ch" + ch).value(), 0.0);
  }
}

}  // namespace
