// SessionRuntime against a model: seeded random interleavings of
// open/reconfigure/data/drain/close over sessions spread across shards.
//
// The model is one decim::DecimationChain per open session, run on the
// test thread in submission order. Every session's served results -- the
// status of each job and the samples of each DATA/DRAIN -- must equal the
// model's, and the fx saturate/round counter totals of the run must equal
// the model run's, at every worker count. Jobs on unknown sessions
// (kNotOpen), OPENs of open sessions (kAlreadyOpen), configs the chain
// refuses (kError) and OPENs with and without the lockstep flag all occur
// in the streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/decimator/chain.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/runtime/session.h"
#include "src/verify/stimulus.h"
#include "tests/push_chain.h"

namespace {

using namespace dsadc;
using runtime::SessionOp;
using runtime::SessionStatus;

using Config = std::shared_ptr<const decim::ChainConfig>;

/// The configs a job may carry. Null selects the runtime's default (the
/// paper chain); the loud config saturates, so the saturate counters move;
/// the refused one has a 63-bit HBF product shift, which the chain build
/// rejects.
struct Configs {
  Config paper;
  Config loud;
  Config refused;

  static const Configs& get() {
    static const Configs c = [] {
      Configs out;
      const auto cfg = decim::paper_chain_config();
      out.paper = std::make_shared<const decim::ChainConfig>(cfg);
      auto loud = cfg;
      loud.scale *= 4.0;
      out.loud = std::make_shared<const decim::ChainConfig>(loud);
      auto refused = cfg;
      refused.hbf_coeff_frac_bits = 65;
      out.refused = std::make_shared<const decim::ChainConfig>(refused);
      return out;
    }();
    return c;
  }
};

struct Job {
  std::uint64_t session = 0;
  SessionOp op = SessionOp::kData;
  Config config;
  std::vector<std::int32_t> codes;
  bool lockstep = false;
};

/// What one job produced, as the done callback saw it.
struct Outcome {
  SessionOp op = SessionOp::kData;
  SessionStatus status = SessionStatus::kOk;
  std::vector<std::int64_t> samples;

  bool operator==(const Outcome&) const = default;
};

using Outcomes = std::map<std::uint64_t, std::vector<Outcome>>;

/// A seeded job stream. Session ids pack a connection and a channel the
/// way the service does, so they spread unevenly over the shards.
std::vector<Job> make_jobs(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t conn = 1; conn <= 3; ++conn) {
    for (std::uint64_t ch = 0; ch < 4; ++ch) ids.push_back(conn << 32 | ch);
  }
  const Configs& cfgs = Configs::get();
  const Config configs[] = {nullptr, cfgs.paper, cfgs.paper, cfgs.loud,
                            cfgs.refused};
  std::uniform_int_distribution<std::size_t> pick_id(0, ids.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_cfg(0, 4);
  std::uniform_int_distribution<std::size_t> pick_len(0, 700);
  // Weights: open, reconfigure, data, drain, close.
  std::discrete_distribution<int> pick_op({12, 6, 60, 8, 8});
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    Job j;
    j.session = ids[pick_id(rng)];
    j.op = static_cast<SessionOp>(pick_op(rng));
    if (j.op == SessionOp::kOpen || j.op == SessionOp::kReconfigure) {
      j.config = configs[pick_cfg(rng)];
    }
    if (j.op == SessionOp::kOpen) j.lockstep = (rng() & 1) != 0;
    if (j.op == SessionOp::kData) {
      const auto raw = verify::make_stimulus(
          verify::random_stimulus_class(rng), pick_len(rng),
          fx::Format{4, 0}, rng);
      j.codes.assign(raw.begin(), raw.end());
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// The model: one DecimationChain per open session, jobs in order.
Outcomes run_model(const std::vector<Job>& jobs,
                   const std::vector<bool>& admitted) {
  std::map<std::uint64_t, std::unique_ptr<decim::DecimationChain>> open;
  Outcomes out;
  const auto build = [](const Config& cfg) {
    return std::make_unique<decim::DecimationChain>(
        cfg ? *cfg : *Configs::get().paper);
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!admitted[i]) continue;
    const Job& j = jobs[i];
    Outcome o;
    o.op = j.op;
    const auto it = open.find(j.session);
    if (j.op == SessionOp::kOpen) {
      if (it != open.end()) {
        o.status = SessionStatus::kAlreadyOpen;
      } else {
        try {
          open.emplace(j.session, build(j.config));
        } catch (const std::invalid_argument&) {
          o.status = SessionStatus::kError;
        }
      }
    } else if (it == open.end()) {
      o.status = SessionStatus::kNotOpen;
    } else {
      decim::DecimationChain& chain = *it->second;
      switch (j.op) {
        case SessionOp::kReconfigure:
          try {
            it->second = build(j.config);
          } catch (const std::invalid_argument&) {
            o.status = SessionStatus::kError;  // keeps the old chain
          }
          break;
        case SessionOp::kData:
          o.samples = chain.process(j.codes);
          break;
        case SessionOp::kDrain:
          o.samples = chain.process(std::vector<std::int32_t>(
              runtime::SessionRuntime::drain_pad_frames(chain), 0));
          break;
        case SessionOp::kClose:
          open.erase(it);
          break;
        case SessionOp::kOpen:
          break;
      }
    }
    out[j.session].push_back(std::move(o));
  }
  return out;
}

struct Served {
  Outcomes outcomes;
  std::vector<bool> admitted;
};

/// The same stream through a SessionRuntime. Two submitter threads each
/// own half of the sessions, so per-session submission order is the
/// stream order while the shards see the two halves interleave.
Served run_runtime(const std::vector<Job>& jobs,
                   runtime::SessionRuntime::Options opts) {
  Served served;
  served.admitted.assign(jobs.size(), false);
  std::mutex mu;
  {
    runtime::SessionRuntime rt(opts);
    std::vector<std::thread> submitters;
    std::vector<std::vector<bool>> admitted(2,
                                            std::vector<bool>(jobs.size()));
    for (std::size_t t = 0; t < 2; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          const Job& j = jobs[i];
          if ((j.session & 0xffffffffu) % 2 != t) continue;
          runtime::SessionJob job;
          job.session = j.session;
          job.op = j.op;
          job.config = j.config;
          job.codes = j.codes;
          job.lockstep = j.lockstep;
          job.done = [&mu, &served](runtime::SessionResult r) {
            std::lock_guard<std::mutex> lock(mu);
            served.outcomes[r.session].push_back(
                {r.op, r.status, std::move(r.samples)});
          };
          admitted[t][i] = rt.submit(std::move(job));
        }
      });
    }
    for (auto& s : submitters) s.join();
    rt.stop();
    EXPECT_EQ(rt.inflight(), 0u);
    EXPECT_FALSE(rt.submit(runtime::SessionJob{}));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      served.admitted[i] = admitted[0][i] || admitted[1][i];
    }
  }
  return served;
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::instance().reset_all();
  }
};

TEST_F(SessionTest, RandomLifecycleMatchesModelAtEveryWorkerCount) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto jobs = make_jobs(seed, 400);
    std::vector<Outcomes> runs;
    for (const std::size_t workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << ", " << workers << " workers");
      runtime::SessionRuntime::Options opts;
      opts.shards = 5;
      opts.workers = workers;
      opts.queue_capacity = 4;  // submitters block on full rings

      obs::Registry::instance().reset_all();
      Served served = run_runtime(jobs, opts);
      const auto served_fx = testutil::fx_snapshot();
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(served.admitted[i]) << "job " << i;  // kBlock admits all
      }

      obs::Registry::instance().reset_all();
      const Outcomes want = run_model(jobs, served.admitted);
      EXPECT_EQ(testutil::fx_snapshot(), served_fx);
      EXPECT_GT(served_fx.at("fx.saturate.scaler_out"), 0u);
      ASSERT_EQ(served.outcomes.size(), want.size());
      for (const auto& [id, outcomes] : want) {
        EXPECT_EQ(served.outcomes[id], outcomes) << "session " << id;
      }
      runs.push_back(std::move(served.outcomes));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i], runs[0]) << "seed " << seed;
    }
    // The stream reaches every status and serves samples.
    std::map<SessionStatus, std::size_t> statuses;
    std::size_t samples = 0;
    for (const auto& [id, outcomes] : runs[0]) {
      for (const Outcome& o : outcomes) {
        ++statuses[o.status];
        samples += o.samples.size();
      }
    }
    EXPECT_EQ(statuses.size(), 4u) << "seed " << seed;
    EXPECT_GT(samples, 0u) << "seed " << seed;
  }
}

// Under kShed a DATA job that meets a full ring is refused at submit();
// the sessions' served streams must equal the model fed only the
// admitted jobs. Lifecycle jobs are never refused.
TEST_F(SessionTest, ShedPolicyServesExactlyTheAdmittedJobs) {
  const auto jobs = make_jobs(11, 400);
  runtime::SessionRuntime::Options opts;
  opts.shards = 2;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.policy = runtime::SessionRuntime::Overload::kShed;

  obs::Registry::instance().reset_all();
  Served served = run_runtime(jobs, opts);
  const auto served_fx = testutil::fx_snapshot();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].op != SessionOp::kData) {
      EXPECT_TRUE(served.admitted[i]) << "job " << i;
    }
  }

  obs::Registry::instance().reset_all();
  const Outcomes want = run_model(jobs, served.admitted);
  EXPECT_EQ(testutil::fx_snapshot(), served_fx);
  EXPECT_EQ(served.outcomes, want);
}

// Sessions run on their own chains whether or not they OPEN with the
// lockstep flag: equal-length blocks on lockstep-flagged sessions of one
// config, drained and closed, match the push() reference of each stream.
TEST_F(SessionTest, LockstepFlagServesBitExact) {
  const Config cfg = Configs::get().paper;
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kBlocks = 4;
  std::mt19937_64 rng(2026);
  std::vector<std::vector<std::vector<std::int32_t>>> blocks(kSessions);
  for (auto& s : blocks) {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const auto raw = verify::make_stimulus(
          verify::random_stimulus_class(rng), 160, fx::Format{4, 0}, rng);
      s.emplace_back(raw.begin(), raw.end());
    }
  }
  const decim::DecimationChain pad_chain(*cfg);
  const std::vector<std::int32_t> zeros(
      runtime::SessionRuntime::drain_pad_frames(pad_chain), 0);
  Outcomes want;
  for (std::size_t s = 0; s < kSessions; ++s) {
    testutil::PushChain ref(*cfg);
    auto& w = want[s];
    w.push_back({SessionOp::kOpen, SessionStatus::kOk, {}});
    for (const auto& b : blocks[s]) {
      w.push_back({SessionOp::kData, SessionStatus::kOk, ref.process(b)});
    }
    w.push_back({SessionOp::kDrain, SessionStatus::kOk, ref.process(zeros)});
    w.push_back({SessionOp::kClose, SessionStatus::kOk, {}});
  }
  const auto want_fx = testutil::fx_snapshot();

  std::vector<Job> jobs;
  for (std::size_t s = 0; s < kSessions; ++s) {
    jobs.push_back({s, SessionOp::kOpen, cfg, {}, /*lockstep=*/s % 2 == 0});
  }
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      jobs.push_back({s, SessionOp::kData, nullptr, blocks[s][b], false});
    }
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    jobs.push_back({s, SessionOp::kDrain, nullptr, {}, false});
    jobs.push_back({s, SessionOp::kClose, nullptr, {}, false});
  }
  runtime::SessionRuntime::Options opts;
  opts.shards = 2;
  opts.workers = 2;
  obs::Registry::instance().reset_all();
  const Served served = run_runtime(jobs, opts);
  EXPECT_EQ(served.outcomes, want);
  EXPECT_EQ(testutil::fx_snapshot(), want_fx);
}

}  // namespace
