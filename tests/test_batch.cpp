// Batch serving fast path: ChainBank lane copies and SessionRuntime
// lockstep groups.
//
// The contract under test is bit-exactness of the served stream: whether
// a session's blocks run through the group's bank rounds, through the
// session's own chain, or through any mix (group forms, seals, dissolves
// mid-stream), the output samples AND the fx saturate/round counter
// totals must be identical to the push() oracle (tests/push_chain.h) fed
// the concatenated stream.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "src/decimator/chain.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/runtime/multichannel.h"
#include "src/runtime/session.h"
#include "src/verify/stimulus.h"
#include "tests/push_chain.h"

namespace {

using namespace dsadc;

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

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::instance().reset_all();
    ::setenv("DSADC_RUNTIME_THREADS", "2", 1);
  }
  void TearDown() override { ::unsetenv("DSADC_RUNTIME_THREADS"); }
};

/// Collects per-session served samples from done callbacks (which run on
/// worker threads; one mutex keeps the test simple).
struct Collector {
  std::mutex mu;
  std::map<std::uint64_t, std::vector<std::int64_t>> samples;
  std::map<std::uint64_t, int> errors;

  std::function<void(runtime::SessionResult)> sink() {
    return [this](runtime::SessionResult r) {
      std::lock_guard<std::mutex> lock(mu);
      if (r.status != runtime::SessionStatus::kOk) {
        ++errors[r.session];
        return;
      }
      auto& dst = samples[r.session];
      dst.insert(dst.end(), r.samples.begin(), r.samples.end());
    };
  }
};

// --- ChainBank lane copy -------------------------------------------------

// Run a few bank rounds (deliberately including block lengths that leave
// every stage's phase/cursors mid-cycle), copy each lane into a fresh
// chain's 1-lane bank and, reversed, into the lanes of a second bank,
// continue the stream on both, and compare against the push() oracle
// over the whole stream. Also proves fx totals match.
TEST_F(BatchTest, CopyLaneContinuesStreamBitExact) {
  const auto cfg = decim::paper_chain_config();
  constexpr std::size_t kLanes = 9;  // one stimulus class per lane
  const std::vector<std::size_t> prefix_blocks = {96, 160, 52};
  const std::vector<std::size_t> suffix_blocks = {512, 44};

  // Per-lane stimulus: every class from the library.
  std::mt19937_64 rng(1234);
  std::vector<std::vector<std::int32_t>> prefix(kLanes), suffix(kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const auto cls = static_cast<verify::StimulusClass>(lane);
    for (const std::size_t n : prefix_blocks) {
      const auto b = stimulus_codes(cls, n, rng);
      prefix[lane].insert(prefix[lane].end(), b.begin(), b.end());
    }
    for (const std::size_t n : suffix_blocks) {
      const auto b = stimulus_codes(cls, n, rng);
      suffix[lane].insert(suffix[lane].end(), b.begin(), b.end());
    }
  }

  for (const bool into_wide : {false, true}) {
    SCOPED_TRACE(into_wide ? "into a 9-lane bank, reversed" : "into chains");
    // Reference pass: push() oracles over the concatenated streams.
    obs::Registry::instance().reset_all();
    std::vector<std::vector<std::int64_t>> want(kLanes);
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      std::vector<std::int32_t> all = prefix[lane];
      all.insert(all.end(), suffix[lane].begin(), suffix[lane].end());
      want[lane] = PushChain(cfg).process(all);
    }
    const auto want_fx = fx_snapshot();
    obs::Registry::instance().reset_all();

    // Bank pass over the prefix, block by block.
    runtime::ChainBank bank(cfg, kLanes);
    std::vector<std::vector<std::int64_t>> got(kLanes);
    std::size_t consumed = 0;
    std::vector<std::int64_t> buf;
    for (const std::size_t n : prefix_blocks) {
      buf.resize(n * kLanes);
      for (std::size_t f = 0; f < n; ++f) {
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          buf[f * kLanes + lane] = prefix[lane][consumed + f];
        }
      }
      bank.process_inplace(buf);
      const std::size_t out_frames = buf.size() / kLanes;
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        for (std::size_t f = 0; f < out_frames; ++f) {
          got[lane].push_back(buf[f * kLanes + lane]);
        }
      }
      consumed += n;
    }

    if (into_wide) {
      // Lane l continues in lane kLanes - 1 - l of a second bank.
      runtime::ChainBank other(cfg, kLanes);
      std::vector<const std::int32_t*> rows(kLanes);
      std::vector<std::vector<std::int64_t>> tails(kLanes);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        bank.copy_lane(lane, other, kLanes - 1 - lane);
        rows[kLanes - 1 - lane] = suffix[lane].data();
      }
      other.process_rows(rows, suffix[0].size(), tails);
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        const auto& tail = tails[kLanes - 1 - lane];
        got[lane].insert(got[lane].end(), tail.begin(), tail.end());
      }
    } else {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        decim::DecimationChain chain(cfg);
        bank.copy_lane(lane, chain.bank(), 0);
        const auto tail = chain.process(suffix[lane]);
        got[lane].insert(got[lane].end(), tail.begin(), tail.end());
      }
    }

    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(got[lane], want[lane])
          << "lane " << lane << " ("
          << verify::stimulus_name(static_cast<verify::StimulusClass>(lane))
          << ")";
    }
    EXPECT_EQ(fx_snapshot(), want_fx);
  }
}

TEST_F(BatchTest, CopyLaneRejectsBadLaneOrConfig) {
  const auto cfg = decim::paper_chain_config();
  runtime::ChainBank bank(cfg, 4);
  decim::DecimationChain chain(cfg);
  EXPECT_THROW(bank.copy_lane(4, chain.bank(), 0), std::invalid_argument);
  EXPECT_THROW(bank.copy_lane(0, chain.bank(), 1), std::invalid_argument);
  auto other_cfg = cfg;
  other_cfg.equalizer_taps[0] += 0.25;
  decim::DecimationChain other(other_cfg);
  EXPECT_THROW(bank.copy_lane(0, other.bank(), 0), std::invalid_argument);
  EXPECT_NO_THROW(bank.copy_lane(3, chain.bank(), 0));
}

// --- SessionRuntime lockstep groups --------------------------------------

// 16 lockstep sessions over 4 shards (4-lane groups), streaming equal
// blocks: every session's served stream and the fx totals must match
// push() oracles.
TEST_F(BatchTest, LockstepGroupsServeBitExact) {
  const auto cfg =
      std::make_shared<const decim::ChainConfig>(decim::paper_chain_config());
  constexpr std::size_t kSessions = 16;
  constexpr std::size_t kBlocks = 7;
  constexpr std::size_t kFrames = 256;
  // The last block crosses two ChainBank::process_rows chunk edges.
  constexpr std::size_t kLastFrames = 2500;

  std::mt19937_64 rng(77);
  std::vector<std::vector<std::vector<std::int32_t>>> blocks(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto cls = static_cast<verify::StimulusClass>(
        s % verify::kNumStimulusClasses);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      blocks[s].push_back(stimulus_codes(
          cls, b + 1 < kBlocks ? kFrames : kLastFrames, rng));
    }
  }

  std::vector<std::vector<std::int64_t>> want(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    PushChain ref(*cfg);
    for (const auto& b : blocks[s]) {
      const auto out = ref.process(b);
      want[s].insert(want[s].end(), out.begin(), out.end());
    }
  }
  const auto want_fx = fx_snapshot();
  obs::Registry::instance().reset_all();

  Collector col;
  {
    runtime::SessionRuntime::Options opts;
    opts.shards = 4;
    opts.workers = 2;
    runtime::SessionRuntime rt(opts);
    for (std::size_t s = 0; s < kSessions; ++s) {
      runtime::SessionJob job;
      job.session = s;
      job.op = runtime::SessionOp::kOpen;
      job.config = cfg;
      job.lockstep = true;
      job.done = col.sink();
      ASSERT_TRUE(rt.submit(std::move(job)));
    }
    for (std::size_t b = 0; b < kBlocks; ++b) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        runtime::SessionJob job;
        job.session = s;
        job.op = runtime::SessionOp::kData;
        job.codes = blocks[s][b];
        job.done = col.sink();
        ASSERT_TRUE(rt.submit(std::move(job)));
      }
    }
    rt.stop();  // flushes any still-grouped backlog
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(col.samples[s], want[s]) << "session " << s;
    EXPECT_EQ(col.errors[s], 0) << "session " << s;
  }
  EXPECT_EQ(fx_snapshot(), want_fx);
}

// A straggler (one silent lane) must dissolve the group once its peers'
// backlog passes the bound -- and the peers' streams must stay bit-exact
// through the bank->scalar transition, as must the straggler's own later
// blocks (served scalar after the dissolve).
TEST_F(BatchTest, StragglerDissolveStaysBitExact) {
  const auto cfg =
      std::make_shared<const decim::ChainConfig>(decim::paper_chain_config());
  constexpr std::size_t kSessions = 4;  // one shard -> one 4-lane group
  constexpr std::size_t kFrames = 128;

  std::mt19937_64 rng(99);
  // Phase 1: 2 lockstep blocks everyone sends. Phase 2: 4 blocks only
  // sessions 1..3 send (session 0 goes quiet; backlog limit 2 forces the
  // dissolve). Phase 3: everyone sends 2 more blocks, now scalar.
  std::vector<std::vector<std::vector<std::int32_t>>> phase(3);
  const std::size_t counts[3] = {2, 4, 2};
  for (std::size_t p = 0; p < 3; ++p) {
    phase[p].resize(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (p == 1 && s == 0) continue;
      for (std::size_t b = 0; b < counts[p]; ++b) {
        phase[p][s].push_back(kFrames);  // lengths; codes drawn below
      }
    }
  }
  std::vector<std::vector<std::vector<std::int32_t>>> codes(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto cls = static_cast<verify::StimulusClass>(
        s % verify::kNumStimulusClasses);
    std::size_t total = 0;
    for (std::size_t p = 0; p < 3; ++p) total += phase[p][s].size();
    for (std::size_t b = 0; b < total; ++b) {
      codes[s].push_back(stimulus_codes(cls, kFrames, rng));
    }
  }

  std::vector<std::vector<std::int64_t>> want(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    PushChain ref(*cfg);
    for (const auto& b : codes[s]) {
      const auto out = ref.process(b);
      want[s].insert(want[s].end(), out.begin(), out.end());
    }
  }
  const auto want_fx = fx_snapshot();
  obs::Registry::instance().reset_all();

  Collector col;
  {
    runtime::SessionRuntime::Options opts;
    opts.shards = 1;
    opts.workers = 1;
    opts.batch_max_lane_backlog = 2;
    opts.batch_linger_us = 0;  // only the backlog bound dissolves
    runtime::SessionRuntime rt(opts);
    for (std::size_t s = 0; s < kSessions; ++s) {
      runtime::SessionJob job;
      job.session = s;
      job.op = runtime::SessionOp::kOpen;
      job.config = cfg;
      job.lockstep = true;
      ASSERT_TRUE(rt.submit(std::move(job)));
    }
    std::vector<std::size_t> sent(kSessions, 0);
    for (std::size_t p = 0; p < 3; ++p) {
      for (std::size_t b = 0; b < counts[p]; ++b) {
        for (std::size_t s = 0; s < kSessions; ++s) {
          if (phase[p][s].size() <= b) continue;
          runtime::SessionJob job;
          job.session = s;
          job.op = runtime::SessionOp::kData;
          job.codes = codes[s][sent[s]++];
          job.done = col.sink();
          ASSERT_TRUE(rt.submit(std::move(job)));
        }
      }
    }
    rt.stop();
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(col.samples[s], want[s]) << "session " << s;
  }
  EXPECT_EQ(fx_snapshot(), want_fx);
}

// Unequal block lengths are a protocol-level loss of lockstep: the group
// dissolves immediately and every queued block replays scalar, bit-exact.
TEST_F(BatchTest, UnequalBlockLengthsDissolveBitExact) {
  const auto cfg =
      std::make_shared<const decim::ChainConfig>(decim::paper_chain_config());
  constexpr std::size_t kSessions = 3;
  std::mt19937_64 rng(5);
  // Session 1's second block has a different length.
  const std::size_t lens[kSessions][3] = {
      {128, 128, 128}, {128, 64, 128}, {128, 128, 128}};

  std::vector<std::vector<std::vector<std::int32_t>>> codes(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (std::size_t b = 0; b < 3; ++b) {
      codes[s].push_back(
          stimulus_codes(verify::StimulusClass::kPrbs, lens[s][b], rng));
    }
  }
  std::vector<std::vector<std::int64_t>> want(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    PushChain ref(*cfg);
    for (const auto& b : codes[s]) {
      const auto out = ref.process(b);
      want[s].insert(want[s].end(), out.begin(), out.end());
    }
  }
  obs::Registry::instance().reset_all();

  Collector col;
  {
    runtime::SessionRuntime::Options opts;
    opts.shards = 1;
    opts.workers = 1;
    runtime::SessionRuntime rt(opts);
    for (std::size_t s = 0; s < kSessions; ++s) {
      runtime::SessionJob job;
      job.session = s;
      job.op = runtime::SessionOp::kOpen;
      job.config = cfg;
      job.lockstep = true;
      ASSERT_TRUE(rt.submit(std::move(job)));
    }
    for (std::size_t b = 0; b < 3; ++b) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        runtime::SessionJob job;
        job.session = s;
        job.op = runtime::SessionOp::kData;
        job.codes = codes[s][b];
        job.done = col.sink();
        ASSERT_TRUE(rt.submit(std::move(job)));
      }
    }
    rt.stop();
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(col.samples[s], want[s]) << "session " << s;
  }
}

// Reconfigure and drain mid-stream on grouped sessions: each lifecycle op
// dissolves the group first, so its own semantics (fresh chain after
// reconfigure, flush tail on drain) and every peer's continued stream
// match the push() oracle.
TEST_F(BatchTest, LifecycleOpsDissolveBitExact) {
  const auto cfg =
      std::make_shared<const decim::ChainConfig>(decim::paper_chain_config());
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kFrames = 192;
  std::mt19937_64 rng(42);

  std::vector<std::vector<std::vector<std::int32_t>>> codes(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto cls = static_cast<verify::StimulusClass>(
        s % verify::kNumStimulusClasses);
    for (std::size_t b = 0; b < 4; ++b) {
      codes[s].push_back(stimulus_codes(cls, kFrames, rng));
    }
  }

  // Reference: all sessions stream blocks 0-1; session 0 reconfigures
  // (fresh chain, same config); everyone streams blocks 2-3; everyone
  // drains (flush tail = group delay of zeros).
  std::vector<std::vector<std::int64_t>> want(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    PushChain ref(*cfg);
    for (std::size_t b = 0; b < 2; ++b) {
      const auto out = ref.process(codes[s][b]);
      want[s].insert(want[s].end(), out.begin(), out.end());
    }
    if (s == 0) ref = PushChain(*cfg);
    for (std::size_t b = 2; b < 4; ++b) {
      const auto out = ref.process(codes[s][b]);
      want[s].insert(want[s].end(), out.begin(), out.end());
    }
    const decim::DecimationChain pad_chain(*cfg);
    const std::vector<std::int32_t> zeros(
        runtime::SessionRuntime::drain_pad_frames(pad_chain), 0);
    const auto tail = ref.process(zeros);
    want[s].insert(want[s].end(), tail.begin(), tail.end());
  }
  const auto want_fx = fx_snapshot();
  obs::Registry::instance().reset_all();

  Collector col;
  {
    runtime::SessionRuntime::Options opts;
    opts.shards = 1;
    opts.workers = 1;
    runtime::SessionRuntime rt(opts);
    auto push = [&](std::uint64_t s, runtime::SessionOp op,
                    std::vector<std::int32_t> data = {}) {
      runtime::SessionJob job;
      job.session = s;
      job.op = op;
      job.codes = std::move(data);
      if (op == runtime::SessionOp::kOpen ||
          op == runtime::SessionOp::kReconfigure) {
        job.config = cfg;
      }
      job.lockstep = (op == runtime::SessionOp::kOpen);
      job.done = col.sink();
      ASSERT_TRUE(rt.submit(std::move(job)));
    };
    for (std::size_t s = 0; s < kSessions; ++s) {
      push(s, runtime::SessionOp::kOpen);
    }
    for (std::size_t b = 0; b < 2; ++b) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        push(s, runtime::SessionOp::kData, codes[s][b]);
      }
    }
    push(0, runtime::SessionOp::kReconfigure);
    for (std::size_t b = 2; b < 4; ++b) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        push(s, runtime::SessionOp::kData, codes[s][b]);
      }
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      push(s, runtime::SessionOp::kDrain);
      push(s, runtime::SessionOp::kClose);
    }
    rt.stop();
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(col.samples[s], want[s]) << "session " << s;
    EXPECT_EQ(col.errors[s], 0) << "session " << s;
  }
  EXPECT_EQ(fx_snapshot(), want_fx);
}

// The batch path's served samples must be identical for every worker
// count (the shard claim serializes each group; worker count only moves
// scheduling). Mirrors the tier-1 determinism guarantee of the
// multichannel runtime.
TEST_F(BatchTest, DeterministicAcrossWorkerCounts) {
  const auto cfg =
      std::make_shared<const decim::ChainConfig>(decim::paper_chain_config());
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kBlocks = 4;
  constexpr std::size_t kFrames = 160;

  std::mt19937_64 rng(2026);
  std::vector<std::vector<std::vector<std::int32_t>>> blocks(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto cls = static_cast<verify::StimulusClass>(
        s % verify::kNumStimulusClasses);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      blocks[s].push_back(stimulus_codes(cls, kFrames, rng));
    }
  }
  std::vector<std::vector<std::int64_t>> want(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    PushChain ref(*cfg);
    for (const auto& b : blocks[s]) {
      const auto out = ref.process(b);
      want[s].insert(want[s].end(), out.begin(), out.end());
    }
  }

  for (const char* threads : {"1", "2", "8"}) {
    ::setenv("DSADC_RUNTIME_THREADS", threads, 1);
    obs::Registry::instance().reset_all();
    Collector col;
    {
      runtime::SessionRuntime::Options opts;
      opts.shards = 2;
      opts.workers = 0;  // take the env setting
      runtime::SessionRuntime rt(opts);
      for (std::size_t s = 0; s < kSessions; ++s) {
        runtime::SessionJob job;
        job.session = s;
        job.op = runtime::SessionOp::kOpen;
        job.config = cfg;
        job.lockstep = true;
        ASSERT_TRUE(rt.submit(std::move(job)));
      }
      for (std::size_t b = 0; b < kBlocks; ++b) {
        for (std::size_t s = 0; s < kSessions; ++s) {
          runtime::SessionJob job;
          job.session = s;
          job.op = runtime::SessionOp::kData;
          job.codes = blocks[s][b];
          job.done = col.sink();
          ASSERT_TRUE(rt.submit(std::move(job)));
        }
      }
      rt.stop();
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      EXPECT_EQ(col.samples[s], want[s])
          << "session " << s << " threads=" << threads;
    }
  }
}

}  // namespace
