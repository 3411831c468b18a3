// Tests for the src/obs instrumentation layer: metrics registry semantics
// (including exactness under concurrent writers), trace spans landing in
// the store and the DSADC_TRACE_OUT Chrome export (round-tripped through
// the verify JSON parser and obs_report), the leveled logger, and the
// bench telemetry record format.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/flow.h"
#include "src/obs/bench_telemetry.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/store/reader.h"
#include "src/obs/store/store.h"
#include "src/obs/trace.h"
#include "src/verify/json.h"

namespace {

using namespace dsadc;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kCompiledOn) GTEST_SKIP() << "instrumentation compiled out";
    obs::set_enabled(true);
    obs::Registry::instance().reset_all();
  }
  void TearDown() override {
    if (!obs::kCompiledOn) return;
    obs::set_log_sink({});
    obs::set_log_level(obs::LogLevel::kWarn);
  }
};

TEST_F(ObsTest, CounterSemantics) {
  auto& c = obs::Registry::instance().counter("test.counter.a");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Find-or-create returns the same instrument.
  EXPECT_EQ(&obs::Registry::instance().counter("test.counter.a"), &c);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, GaugeSemantics) {
  auto& g = obs::Registry::instance().gauge("test.gauge.a");
  EXPECT_EQ(g.value(), 0.0);
  g.set(-3.25);
  EXPECT_EQ(g.value(), -3.25);
  g.set(1e300);
  EXPECT_EQ(g.value(), 1e300);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(ObsTest, HistogramSemantics) {
  auto& h =
      obs::Registry::instance().histogram("test.hist.a", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (bounds are inclusive upper edges)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  // Re-request ignores new bounds and returns the same instrument.
  EXPECT_EQ(&obs::Registry::instance().histogram("test.hist.a", {7.0}), &h);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(3), 0u);
}

TEST_F(ObsTest, CounterTotalSumsByPrefix) {
  auto& reg = obs::Registry::instance();
  reg.counter("fxtest.saturate.site_a").add(3);
  reg.counter("fxtest.saturate.site_b").add(4);
  reg.counter("fxtest.wrap.site_a").add(100);
  EXPECT_EQ(reg.counter_total("fxtest.saturate."), 7u);
  EXPECT_EQ(reg.counter_total("fxtest."), 107u);
  EXPECT_EQ(reg.counter_total("fxtest.nothing."), 0u);
}

TEST_F(ObsTest, ConcurrentCounterIncrementsAreExact) {
  auto& reg = obs::Registry::instance();
  constexpr int kNumThreads = 4;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kNumThreads; ++t) {
    workers.emplace_back([&reg] {
      // Mix pre-looked-up and by-name access: both must be race-free.
      auto& c = reg.counter("test.concurrent.count");
      auto& h = reg.histogram("test.concurrent.hist", {0.5});
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        reg.counter("test.concurrent.count2").add(2);
        h.observe(1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("test.concurrent.count").value(),
            std::uint64_t{kNumThreads} * kPerThread);
  EXPECT_EQ(reg.counter("test.concurrent.count2").value(),
            2u * kNumThreads * kPerThread);
  auto& h = reg.histogram("test.concurrent.hist", {});
  EXPECT_EQ(h.count(), std::uint64_t{kNumThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kNumThreads) * kPerThread);
}

TEST_F(ObsTest, RegistryJsonRoundTrips) {
  auto& reg = obs::Registry::instance();
  reg.counter("test.json.counter").add(7);
  reg.gauge("test.json.gauge").set(-0.125);
  reg.histogram("test.json.hist", {1.0, 2.0}).observe(1.5);
  const verify::Json j = verify::json_parse(reg.to_json(2));
  EXPECT_EQ(j.at("counters").at("test.json.counter").as_int(), 7);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("test.json.gauge").as_double(), -0.125);
  const verify::Json& h = j.at("histograms").at("test.json.hist");
  EXPECT_EQ(h.at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(h.at("sum").as_double(), 1.5);
  ASSERT_EQ(h.at("buckets").size(), 3u);  // two bounds + overflow
  EXPECT_EQ(h.at("buckets").at(1).as_int(), 1);
}

TEST_F(ObsTest, DisabledSwitchGatesCounting) {
  obs::set_enabled(false);
  EXPECT_FALSE(obs::enabled());
  DSADC_OBS_COUNT("test.disabled.count");
  obs::set_enabled(true);
  DSADC_OBS_COUNT("test.disabled.count");
  EXPECT_EQ(obs::Registry::instance().counter("test.disabled.count").value(),
            1u);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A fresh empty directory under the gtest temp dir.
std::filesystem::path fresh_dir(const std::string& tag) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("dsadc_test_obs_" + tag + "_" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST_F(ObsTest, SpanNamesLandInOpenStore) {
  const auto dir = fresh_dir("spans");
  ASSERT_TRUE(obs::store::open(dir.string()));
  { DSADC_TRACE_SPAN("literal_span"); }
  { obs::Span s(std::string("string_") + "span"); }
  obs::store::close();

  const obs::store::StoreReader reader(dir.string());
  ASSERT_TRUE(reader.ok()) << reader.error();
  std::multiset<std::string> names;
  reader.visit(obs::store::Category::kFlow, [&](const obs::store::Event& e) {
    names.insert(reader.name(e.name));
    EXPECT_GE(e.dur_us, 0);
  });
  EXPECT_EQ(names, (std::multiset<std::string>{"literal_span", "string_span"}));
  std::filesystem::remove_all(dir);
}

// Child process for the DSADC_TRACE_OUT tests below (disabled, so only
// run_trace_child runs it): the paper's design flow under whatever trace
// environment the parent set.
TEST(TraceChild, DISABLED_DesignFlow) {
  const char* out = std::getenv("DSADC_TRACE_OUT");
  EXPECT_EQ(obs::store::enabled(), out != nullptr && out[0] != '\0');
  (void)core::DesignFlow::design(mod::paper_modulator_spec(),
                                 mod::paper_decimator_spec());
}

/// Runs TraceChild.DISABLED_DesignFlow in a fresh process with both
/// store variables cleared, then `env` (NAME=value words) applied, and
/// TMPDIR pointed at `tmpdir`. Returns the exit status.
int run_trace_child(const std::string& env,
                    const std::filesystem::path& tmpdir) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  const std::string cmd =
      "env -u DSADC_STORE_OUT -u DSADC_TRACE_OUT TMPDIR='" + tmpdir.string() +
      "' " + env + " '" + self +
      "' --gtest_also_run_disabled_tests"
      " --gtest_filter=TraceChild.DISABLED_DesignFlow > /dev/null";
  return std::system(cmd.c_str());
}

TEST_F(ObsTest, TraceOutWritesChromeFileFromStore) {
  const auto dir = fresh_dir("trace_out");
  const auto tmpdir = dir / "tmp";
  std::filesystem::create_directories(tmpdir);
  const auto trace = dir / "trace.json";
  ASSERT_EQ(run_trace_child("DSADC_TRACE_OUT='" + trace.string() + "'",
                            tmpdir),
            0);
  EXPECT_TRUE(std::filesystem::is_empty(tmpdir))
      << "the temp-dir store is removed after the export";

  const verify::Json j = verify::json_parse(read_file(trace));
  const verify::Json& events = j.at("traceEvents");
  bool found = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const verify::Json& e = events.at(i);
    if (e.at("name").as_string() != "design_flow") continue;
    found = true;
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_EQ(e.at("cat").as_string(), "flow");
    EXPECT_GT(e.at("dur").as_int(), 0);
  }
  EXPECT_TRUE(found) << "no design_flow span in " << trace;

  const auto report = dir / "report.json";
  const std::string cmd = std::string("'") + DSADC_OBS_REPORT_PATH +
                          "' --bench-dir '" + dir.string() + "' --trace '" +
                          trace.string() + "' -o '" + report.string() +
                          "' > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  EXPECT_EQ(verify::json_parse(read_file(report))
                .at("trace")
                .at("event_count")
                .as_int(),
            static_cast<std::int64_t>(events.size()));
  std::filesystem::remove_all(dir);
}

TEST_F(ObsTest, NoTraceEnvRecordsNothing) {
  const auto dir = fresh_dir("no_env");
  ASSERT_EQ(run_trace_child("", dir), 0);  // child asserts the store is off
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "no store was opened";
  std::filesystem::remove_all(dir);
}

TEST_F(ObsTest, LoggerLevelFilteringAndSink) {
  std::vector<std::string> lines;
  obs::set_log_sink([&lines](obs::LogLevel level, const char* component,
                             const std::string& msg) {
    lines.push_back(std::string(obs::log_level_name(level)) + "|" +
                    component + "|" + msg);
  });
  obs::set_log_level(obs::LogLevel::kWarn);
  DSADC_LOG_DEBUG("remez", "hidden %d", 1);
  DSADC_LOG_WARN("remez", "visible %d", 2);
  obs::set_log_level(obs::LogLevel::kDebug);
  DSADC_LOG_DEBUG("remez", "now visible %.1f", 0.5);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "warn|remez|visible 2");
  EXPECT_EQ(lines[1], "debug|remez|now visible 0.5");
}

TEST_F(ObsTest, LogLevelNamesRoundTrip) {
  EXPECT_EQ(obs::log_level_from_name("error"), obs::LogLevel::kError);
  EXPECT_EQ(obs::log_level_from_name("trace"), obs::LogLevel::kTrace);
  // Unknown names fall back to the default threshold.
  EXPECT_EQ(obs::log_level_from_name("bogus"), obs::LogLevel::kWarn);
  EXPECT_STREQ(obs::log_level_name(obs::LogLevel::kInfo), "info");
}

TEST_F(ObsTest, BenchReportWritesValidRecord) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("DSADC_BENCH_OUT", dir.c_str(), 1), 0);
  std::string path;
  {
    obs::BenchReport report("obs_selftest");
    path = report.output_path();
    report.set("snr_db", 86.5);
    report.set("config", "paper");
    report.set("stable", true);
    EXPECT_EQ(report.finish(true), 0);
    EXPECT_EQ(report.finish(true), 0);  // idempotent
  }
  unsetenv("DSADC_BENCH_OUT");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const verify::Json j = verify::json_parse(ss.str());
  EXPECT_EQ(j.at("bench").as_string(), "obs_selftest");
  EXPECT_TRUE(j.at("ok").as_bool());
  EXPECT_GE(j.at("wall_ms").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(j.at("metrics").at("snr_db").as_double(), 86.5);
  EXPECT_EQ(j.at("metrics").at("config").as_string(), "paper");
  EXPECT_TRUE(j.at("metrics").at("stable").as_bool());
  std::remove(path.c_str());
}

TEST_F(ObsTest, BenchReportFailureExitCode) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("DSADC_BENCH_OUT", dir.c_str(), 1), 0);
  obs::BenchReport report("obs_selftest_fail");
  const std::string path = report.output_path();
  EXPECT_EQ(report.finish(false), 1);
  unsetenv("DSADC_BENCH_OUT");
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_FALSE(verify::json_parse(ss.str()).at("ok").as_bool());
  std::remove(path.c_str());
}

}  // namespace
