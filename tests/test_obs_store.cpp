// Tests for the columnar trace store (src/obs/store): writer/reader
// round-trips, exactness under concurrent emitters, crash-safety of the
// block format (footer-less and truncated files), transaction tracking
// (parent/child links, ambient context, fx budgeting), the query engine,
// and Chrome export well-formedness.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/decimator/chain.h"
#include "src/obs/obs.h"
#include "src/obs/store/query.h"
#include "src/obs/store/reader.h"
#include "src/obs/store/store.h"
#include "src/obs/store/tracker.h"
#include "src/obs/store/writer.h"
#include "src/verify/json.h"

namespace {

namespace fs = std::filesystem;
using namespace dsadc;
using namespace dsadc::obs::store;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kCompiledOn) GTEST_SKIP() << "instrumentation compiled out";
    static std::atomic<int> seq{0};
    dir_ = (fs::temp_directory_path() /
            ("dsadc_store_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(seq.fetch_add(1))))
               .string();
    close();  // in case a previous test left a store open
  }
  void TearDown() override {
    if (!obs::kCompiledOn) return;
    close();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

Event make_event(Category c, std::uint32_t name, std::int64_t ts) {
  Event e;
  e.category = c;
  e.name = name;
  e.ts_us = ts;
  return e;
}

TEST_F(StoreTest, DisabledByDefaultAndEmitIsNoOp) {
  EXPECT_FALSE(enabled());
  emit(make_event(Category::kFlow, 0, 1));  // must not crash or open files
  EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(StoreTest, RoundTripAllColumns) {
  ASSERT_TRUE(open(dir_));
  EXPECT_TRUE(enabled());
  EXPECT_FALSE(open(dir_));  // second open refused while one is live

  const std::uint32_t name = intern("roundtrip.event");
  Event e = make_event(Category::kService, name, 123456);
  e.dur_us = 789;
  e.txn = 42;
  e.value = -7;
  e.aux = 99;
  e.channel = 3;
  e.stage = 2;
  emit(e);
  close();
  EXPECT_FALSE(enabled());

  StoreReader reader(dir_);
  ASSERT_TRUE(reader.ok()) << reader.error();
  ASSERT_TRUE(reader.has_category(Category::kService));
  EXPECT_FALSE(reader.recovered(Category::kService));
  EXPECT_EQ(reader.total_events(Category::kService), 1u);
  std::vector<Event> got;
  reader.visit(Category::kService, [&](const Event& ev) { got.push_back(ev); });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].ts_us, 123456);
  EXPECT_EQ(got[0].dur_us, 789);
  EXPECT_EQ(got[0].txn, 42u);
  EXPECT_EQ(got[0].value, -7);
  EXPECT_EQ(got[0].aux, 99u);
  EXPECT_EQ(got[0].name, name);
  EXPECT_EQ(got[0].channel, 3u);
  EXPECT_EQ(got[0].stage, 2u);
  EXPECT_GT(got[0].tid, 0u);
  EXPECT_EQ(got[0].category, Category::kService);
  EXPECT_EQ(reader.name(name), "roundtrip.event");
}

TEST_F(StoreTest, MultiBlockAndTimeRangePruning) {
  ASSERT_TRUE(open(dir_));
  const std::uint32_t name = intern("multiblock");
  constexpr int kN = 10000;  // > 2 full blocks of 4096
  for (int i = 0; i < kN; ++i) {
    emit(make_event(Category::kStage, name, i + 1));
  }
  close();

  StoreReader reader(dir_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.total_events(Category::kStage),
            static_cast<std::uint64_t>(kN));
  const auto [lo, hi] = reader.time_range(Category::kStage);
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, kN);

  // Exact time-range filter across a block boundary.
  std::uint64_t n = 0;
  reader.visit(Category::kStage, 4000, 4500, [&](const Event& ev) {
    EXPECT_GE(ev.ts_us, 4000);
    EXPECT_LE(ev.ts_us, 4500);
    ++n;
  });
  EXPECT_EQ(n, 501u);
}

TEST_F(StoreTest, ConcurrentWritersExactCounts) {
  ASSERT_TRUE(open(dir_));
  constexpr int kNumThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kNumThreads);
  for (int t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([t] {
      const std::uint32_t name =
          intern("writer." + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        Event e = make_event(Category::kRuntime, name, 0);  // stamp now
        e.value = i;
        e.channel = static_cast<std::uint32_t>(t);
        emit(e);
      }
    });
  }
  for (auto& t : threads) t.join();
  close();

  StoreReader reader(dir_);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.total_events(Category::kRuntime),
            static_cast<std::uint64_t>(kNumThreads) * kPerThread);
  // Exact per-channel counts and per-channel value sums survived the
  // concurrent staging/hand-off path.
  std::vector<std::uint64_t> counts(kNumThreads, 0);
  std::vector<std::int64_t> sums(kNumThreads, 0);
  reader.visit(Category::kRuntime, [&](const Event& ev) {
    ASSERT_LT(ev.channel, static_cast<std::uint32_t>(kNumThreads));
    ++counts[ev.channel];
    sums[ev.channel] += ev.value;
  });
  constexpr std::int64_t kWant =
      std::int64_t{kPerThread} * (kPerThread - 1) / 2;
  for (int t = 0; t < kNumThreads; ++t) {
    EXPECT_EQ(counts[t], static_cast<std::uint64_t>(kPerThread)) << t;
    EXPECT_EQ(sums[t], kWant) << t;
  }
}

TEST_F(StoreTest, ReaderRecoversFooterlessFile) {
  // A writer torn down without finalize() leaves blocks but no footer --
  // the crashed-process case.
  {
    StoreWriter writer(dir_);
    ASSERT_TRUE(writer.ok());
    std::vector<Event> batch;
    for (int i = 0; i < 5000; ++i) {
      batch.push_back(make_event(Category::kFx, 1, i + 1));
    }
    writer.append(batch);
    // 4096 flushed as a full block; 904 staged events are lost (never
    // flushed), exactly like a crash mid-staging.
  }
  StoreReader reader(dir_);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(reader.recovered(Category::kFx));
  EXPECT_EQ(reader.total_events(Category::kFx), 4096u);
  // No strings file was ever written: names degrade, reads still work.
  EXPECT_EQ(reader.name(1), "#1");
}

TEST_F(StoreTest, ReaderToleratesTruncatedFile) {
  ASSERT_TRUE(open(dir_));
  for (int i = 0; i < 5000; ++i) {
    emit(make_event(Category::kFlow, intern("trunc"), i + 1));
  }
  emit(make_event(Category::kService, intern("survivor"), 1));
  close();
  const std::string path = dir_ + "/" + category_file_name(Category::kFlow);
  const auto size = fs::file_size(path);

  // Chop the trailer: the footer index is unusable, the recovery scan
  // still sees every block (4096 + 904).
  fs::resize_file(path, size - 16);
  {
    StoreReader reader(dir_);
    ASSERT_TRUE(reader.ok());
    EXPECT_TRUE(reader.recovered(Category::kFlow));
    EXPECT_EQ(reader.total_events(Category::kFlow), 5000u);
  }
  // Chop into the middle of the second block: only the first survives.
  fs::resize_file(path, 16 + 8 + 4096 * kEventDiskBytes + 100);
  {
    StoreReader reader(dir_);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.total_events(Category::kFlow), 4096u);
  }
  // Chop to below the header: the category is unreadable, the reader
  // still opens the rest of the store.
  fs::resize_file(path, 8);
  {
    StoreReader reader(dir_);
    ASSERT_TRUE(reader.ok());  // the service category still parses
    EXPECT_FALSE(reader.has_category(Category::kFlow));
    EXPECT_EQ(reader.total_events(Category::kService), 1u);
  }
}

TEST_F(StoreTest, TrackerParentChildAndAmbientContext) {
  ASSERT_TRUE(open(dir_));
  const std::uint32_t outer_name = intern("txn.outer");
  const std::uint32_t inner_name = intern("txn.inner");
  const std::uint32_t fx_name = intern("fx.test.site");
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    TxnScope outer(outer_name, /*channel=*/7);
    ASSERT_TRUE(outer.active());
    outer_id = outer.id();
    outer.set_value(111);
    {
      TxnScope inner(inner_name);  // channel inherited from outer
      inner_id = inner.id();
      EXPECT_NE(inner_id, outer_id);
      note_fx(fx_name, 42);
      Event plain = make_event(Category::kService, intern("plain"), 0);
      emit(plain);  // inherits txn/channel ambiently
    }
  }
  note_fx(fx_name, 1);  // outside any transaction: not recorded
  close();

  StoreReader reader(dir_);
  ASSERT_TRUE(reader.ok());

  std::vector<Event> txns;
  reader.visit(Category::kTxn, [&](const Event& e) { txns.push_back(e); });
  ASSERT_EQ(txns.size(), 2u);
  // Inner closes first, so it is written first.
  EXPECT_EQ(txns[0].txn, inner_id);
  EXPECT_EQ(txns[0].aux, outer_id);    // parent link
  EXPECT_EQ(txns[0].channel, 7u);      // inherited
  EXPECT_EQ(txns[1].txn, outer_id);
  EXPECT_EQ(txns[1].aux, 0u);
  EXPECT_EQ(txns[1].value, 111);
  EXPECT_GE(txns[1].dur_us, txns[0].dur_us);

  std::vector<Event> fx;
  reader.visit(Category::kFx, [&](const Event& e) { fx.push_back(e); });
  ASSERT_EQ(fx.size(), 1u);  // the out-of-transaction hit was dropped
  EXPECT_EQ(fx[0].txn, inner_id);
  EXPECT_EQ(fx[0].channel, 7u);
  EXPECT_EQ(fx[0].value, 42);

  std::vector<Event> service;
  reader.visit(Category::kService,
               [&](const Event& e) { service.push_back(e); });
  ASSERT_EQ(service.size(), 1u);
  EXPECT_EQ(service[0].txn, inner_id);
  EXPECT_EQ(service[0].channel, 7u);
}

TEST_F(StoreTest, FxBudgetSuppressesButTallies) {
  ASSERT_TRUE(open(dir_));
  const std::uint32_t fx_name = intern("fx.budget.site");
  {
    TxnScope txn(intern("txn.budget"), 1);
    for (int i = 0; i < 100; ++i) note_fx(fx_name, i);
  }
  close();

  StoreReader reader(dir_);
  ASSERT_TRUE(reader.ok());
  std::uint64_t raw = 0;
  std::int64_t suppressed = -1;
  reader.visit(Category::kFx, [&](const Event& e) {
    if (reader.name(e.name) == "fx.suppressed") {
      suppressed = e.value;
    } else {
      ++raw;
    }
  });
  EXPECT_EQ(raw, kFxEventBudget);
  EXPECT_EQ(suppressed, 100 - static_cast<std::int64_t>(kFxEventBudget));
}

TEST_F(StoreTest, ChainEmitsStageEventsUnderTransaction) {
  ASSERT_TRUE(open(dir_));
  decim::DecimationChain chain(decim::paper_chain_config());
  const std::vector<std::int32_t> codes(512, 1);
  std::uint64_t txn_id = 0;
  {
    TxnScope txn(intern("session.data"), /*channel=*/5);
    txn_id = txn.id();
    chain.process(codes);
  }
  close();

  StoreReader reader(dir_);
  ASSERT_TRUE(reader.ok());
  std::vector<Event> stages;
  reader.visit(Category::kStage, [&](const Event& e) { stages.push_back(e); });
  // input + 3 CIC + halfband + scaler + equalizer = 7 boundaries.
  ASSERT_EQ(stages.size(), 7u);
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(stages[i].stage, static_cast<std::uint32_t>(i));
    EXPECT_EQ(stages[i].txn, txn_id);
    EXPECT_EQ(stages[i].channel, 5u);
  }
  EXPECT_EQ(reader.name(stages[0].name), "stage.input");
  EXPECT_EQ(reader.name(stages[4].name), "stage.halfband");
  EXPECT_EQ(stages[0].aux, codes.size());  // aux carries the sample count
  EXPECT_EQ(stages[6].aux, codes.size() / 16);
}

TEST_F(StoreTest, ChainFxHitsLandInTransactionAsPerSiteCounts) {
  // The chain's block kernels tally fx hits per block: each site with hits
  // records one fx event per kind in the enclosing transaction, value =
  // hit count, so the events sum to the registry counters.
  obs::set_enabled(true);
  auto& reg = obs::Registry::instance();
  reg.reset_all();
  ASSERT_TRUE(open(dir_));
  decim::ChainConfig cfg = decim::paper_chain_config();
  cfg.scale *= 4.0;  // DC code 6 at 4x scale clips the +-1 output
  decim::DecimationChain chain(cfg);
  const std::vector<std::int32_t> codes(4096, 6);
  std::uint64_t txn_id = 0;
  {
    TxnScope txn(intern("session.data"), /*channel=*/3);
    txn_id = txn.id();
    chain.process(codes);
  }
  close();

  StoreReader reader(dir_);
  ASSERT_TRUE(reader.ok());
  std::map<std::string, std::int64_t> per_name;
  reader.visit(Category::kFx, [&](const Event& e) {
    EXPECT_EQ(e.txn, txn_id);
    EXPECT_EQ(e.channel, 3u);
    EXPECT_GT(e.value, 0);
    const std::string name(reader.name(e.name));
    EXPECT_EQ(per_name.count(name), 0u) << name << " recorded twice";
    per_name[name] = e.value;
  });
  EXPECT_EQ(per_name.count("fx.suppressed"), 0u);
  EXPECT_GT(per_name.count("fx.saturate.fir_out"), 0u);
  EXPECT_GT(per_name.count("fx.round.hbf_product"), 0u);
  for (const auto& [name, hits] : per_name) {
    EXPECT_EQ(static_cast<std::uint64_t>(hits), reg.counter(name).value())
        << name;
  }
}

TEST_F(StoreTest, QueryPredicatesAndAggregation) {
  ASSERT_TRUE(open(dir_));
  const std::uint32_t fast = intern("op.fast");
  const std::uint32_t slow = intern("op.slow");
  for (int i = 0; i < 100; ++i) {
    Event e = make_event(Category::kTxn, i % 2 == 0 ? fast : slow, i + 1);
    e.dur_us = i % 2 == 0 ? 10 : 1000;
    e.channel = static_cast<std::uint32_t>(i % 4);
    e.stage = 1;
    emit(e);
  }
  close();

  StoreReader reader(dir_);
  ASSERT_TRUE(reader.ok());

  Query q;
  q.categories = {Category::kTxn};
  q.has_channel = true;
  q.channel = 2;
  EXPECT_EQ(run_query(reader, q, nullptr), 25u);

  q.name_substr = "op.fast";
  EXPECT_EQ(run_query(reader, q, nullptr), 25u);  // channel 2 is all-even
  q.name_substr = "op.slow";
  EXPECT_EQ(run_query(reader, q, nullptr), 0u);

  // Time range + limit.
  Query tr;
  tr.ts_min = 11;
  tr.ts_max = 20;
  std::vector<Event> out;
  EXPECT_EQ(run_query(reader, tr, &out, 3), 3u);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(run_query(reader, tr, nullptr), 10u);

  // p50/p99 over the bimodal duration split, grouped by name.
  Query all;
  const auto rows = aggregate(reader, all, AggField::kDur, GroupKey::kName);
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& r : rows) {
    EXPECT_EQ(r.count, 50u);
    if (r.key == "op.fast") {
      EXPECT_DOUBLE_EQ(r.p50, 10.0);
      EXPECT_DOUBLE_EQ(r.p99, 10.0);
      EXPECT_DOUBLE_EQ(r.sum, 500.0);
    } else {
      EXPECT_EQ(r.key, "op.slow");
      EXPECT_DOUBLE_EQ(r.p50, 1000.0);
      EXPECT_DOUBLE_EQ(r.max, 1000.0);
    }
  }
  // min-dur filter isolates the slow mode.
  Query slow_q;
  slow_q.min_dur_us = 500;
  EXPECT_EQ(run_query(reader, slow_q, nullptr), 50u);
}

TEST_F(StoreTest, ChromeExportParsesAndCounts) {
  ASSERT_TRUE(open(dir_));
  for (int i = 0; i < 10; ++i) {
    Event e = make_event(Category::kTxn, intern("chrome \"quoted\""), i + 1);
    e.dur_us = i;  // i == 0 exercises the instant-event path
    e.channel = 1;
    emit(e);
  }
  close();

  StoreReader reader(dir_);
  ASSERT_TRUE(reader.ok());
  const std::string path = dir_ + "/chrome.json";
  Query q;
  ASSERT_TRUE(export_chrome(reader, q, path));

  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  const verify::Json j = verify::json_parse(ss.str());
  EXPECT_EQ(j.at("traceEvents").size(), 10u);
  EXPECT_EQ(j.at("traceEvents").at(3).at("name").as_string(),
            "chrome \"quoted\"");
}

TEST_F(StoreTest, ReopenStartsAFreshStore) {
  ASSERT_TRUE(open(dir_));
  emit(make_event(Category::kFlow, intern("first"), 1));
  close();
  const std::string dir2 = dir_ + "_second";
  ASSERT_TRUE(open(dir2));
  emit(make_event(Category::kFlow, intern("second"), 2));
  close();

  StoreReader r1(dir_);
  StoreReader r2(dir2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.total_events(Category::kFlow), 1u);
  EXPECT_EQ(r2.total_events(Category::kFlow), 1u);
  // Interned ids are process-wide: the second store's string table still
  // resolves names interned before it opened.
  EXPECT_EQ(r2.name(intern("first")), "first");
  std::error_code ec;
  fs::remove_all(dir2, ec);
}

}  // namespace
