// The end-to-end design flow (the paper's contribution): given Table I,
// produce a verified, synthesizable decimation filter - and retarget it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>

#include "src/core/flow.h"
#include "src/core/response.h"
#include "tests/env_guard.h"

namespace {

using namespace dsadc;
using core::DesignFlow;
using core::FlowOptions;
using core::FlowResult;

class PaperFlow : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new FlowResult(DesignFlow::design(mod::paper_modulator_spec(),
                                                mod::paper_decimator_spec()));
  }
  static void TearDownTestSuite() { delete result_; }
  static FlowResult* result_;
};

FlowResult* PaperFlow::result_ = nullptr;

/// DSADC_VERIFY_THREADS values the flow must be indifferent to (it is
/// re-read per call): inline, one extra worker, and more workers than
/// there are parallel tasks.
constexpr const char* kThreadCounts[] = {"1", "2", "8"};

TEST_F(PaperFlow, SpecChecksPass) {
  EXPECT_TRUE(result_->ripple_ok) << result_->passband_ripple_db;
  EXPECT_TRUE(result_->attenuation_ok) << result_->alias_protection_db;
  EXPECT_GE(result_->alias_protection_db, 85.0);
  EXPECT_LE(result_->passband_ripple_db, 1.0);
}

TEST_F(PaperFlow, ModulatorModelMatchesPaper) {
  EXPECT_NEAR(result_->ntf.infinity_norm(), 3.0, 0.05);
  EXPECT_GT(result_->predicted_sqnr_db, 95.0);
  EXPECT_EQ(result_->ciff.order(), 5);
  EXPECT_NEAR(result_->msa, 0.81, 1e-12);  // spec value carried through
}

TEST_F(PaperFlow, ChainStructureMatchesPaper) {
  ASSERT_EQ(result_->chain.cic_stages.size(), 3u);
  EXPECT_EQ(result_->chain.cic_stages[0].order, 4);
  EXPECT_EQ(result_->chain.cic_stages[1].order, 4);
  EXPECT_EQ(result_->chain.cic_stages[2].order, 6);
  EXPECT_EQ(result_->chain.cic_stages[0].input_bits, 4);
  EXPECT_EQ(result_->chain.cic_stages[1].input_bits, 8);
  EXPECT_EQ(result_->chain.cic_stages[2].input_bits, 12);
  EXPECT_GE(result_->chain.hbf.stopband_atten_db, 90.0);
}

TEST_F(PaperFlow, ReportMentionsKeyFacts) {
  const std::string rep = core::flow_report(*result_);
  EXPECT_NE(rep.find("order 5"), std::string::npos);
  EXPECT_NE(rep.find("Sinc4(/2)"), std::string::npos);
  EXPECT_NE(rep.find("Sinc6(/2)"), std::string::npos);
  EXPECT_NE(rep.find("OK"), std::string::npos);
}

TEST_F(PaperFlow, VerifyMeetsTargets) {
  const auto v = DesignFlow::verify(*result_, 5e6, 1 << 15);
  EXPECT_TRUE(v.snr_ok);
  EXPECT_GT(v.snr_db, 80.0);               // 14-bit output, short run
  EXPECT_GT(v.snr_unquantized_db, 86.0);   // the filtering itself
  EXPECT_NEAR(v.tone_freq_hz, 5e6, 0.2e6);
}

TEST_F(PaperFlow, RtlArtifactsGenerated) {
  const auto art = DesignFlow::generate_rtl(*result_);
  EXPECT_EQ(art.verilog.size(), 6u);
  EXPECT_NE(art.verilog.find("halfband"), art.verilog.end());
  EXPECT_NE(art.full_chain_verilog.find("module decimation_chain"),
            std::string::npos);
  EXPECT_NE(art.testbench.find("_tb"), std::string::npos);
}

TEST_F(PaperFlow, SynthesisProfileShape) {
  const auto prof = DesignFlow::synthesize(*result_, 5e6, 1 << 12);
  ASSERT_EQ(prof.stages.size(), 6u);
  // First Sinc stage dominates dynamic power (Fig. 13).
  for (std::size_t i = 1; i < prof.stages.size(); ++i) {
    EXPECT_GE(prof.stages[0].dynamic_power_w,
              prof.stages[i].dynamic_power_w);
  }
}

TEST(FlowOptionsTest, ExplicitCicOrdersHonoured) {
  FlowOptions opt;
  opt.cic_orders = {5, 5, 6};
  const auto r = DesignFlow::design(mod::paper_modulator_spec(),
                                    mod::paper_decimator_spec(), opt);
  EXPECT_EQ(r.chain.cic_stages[0].order, 5);
  EXPECT_EQ(r.chain.cic_stages[1].order, 5);
  FlowOptions bad;
  bad.cic_orders = {4};
  EXPECT_THROW(DesignFlow::design(mod::paper_modulator_spec(),
                                  mod::paper_decimator_spec(), bad),
               std::invalid_argument);
}

TEST(FlowRetarget, Osr32NarrowbandStandard) {
  // SDR reconfiguration: a W-CDMA-like 5 MHz band at OSR 32.
  mod::ModulatorSpec m;
  m.order = 4;
  m.osr = 32.0;
  m.obg = 2.5;
  m.sample_rate_hz = 320e6;
  m.bandwidth_hz = 5e6;
  m.quantizer_bits = 4;
  m.msa = 0.85;
  mod::DecimatorSpec d;
  d.passband_edge_hz = 5e6;
  d.stopband_edge_hz = 5.75e6;
  d.output_rate_hz = 10e6;
  d.stopband_atten_db = 85.0;
  d.target_snr_db = 86.0;
  const auto r = DesignFlow::design(m, d);
  EXPECT_EQ(r.chain.cic_stages.size(), 4u);  // OSR 32: four /2 Sinc stages
  EXPECT_TRUE(r.attenuation_ok) << r.alias_protection_db;
  EXPECT_TRUE(r.ripple_ok) << r.passband_ripple_db;
}

class FlowOsrSweep : public ::testing::TestWithParam<double> {};

TEST_P(FlowOsrSweep, DesignsMeetSpecsAcrossOsr) {
  const double osr = GetParam();
  mod::ModulatorSpec m;
  m.order = osr >= 16 ? 4 : 5;
  m.osr = osr;
  m.obg = osr >= 32 ? 2.0 : 3.0;
  m.bandwidth_hz = 10e6;
  m.sample_rate_hz = 2.0 * m.bandwidth_hz * osr;
  m.quantizer_bits = 4;
  m.msa = 0.8;
  mod::DecimatorSpec d;
  d.passband_edge_hz = 10e6;
  d.stopband_edge_hz = 11.5e6;
  d.output_rate_hz = 20e6;
  d.stopband_atten_db = 80.0;
  d.target_snr_db = 80.0;
  const auto r = core::DesignFlow::design(m, d);
  std::size_t n_cic = 0;
  for (double v = osr / 2.0; v > 1.0; v /= 2.0) ++n_cic;
  EXPECT_EQ(r.chain.cic_stages.size(), n_cic);
  EXPECT_TRUE(r.attenuation_ok) << "OSR " << osr << ": "
                                << r.alias_protection_db;
  EXPECT_TRUE(r.ripple_ok) << "OSR " << osr << ": " << r.passband_ripple_db;
}

INSTANTIATE_TEST_SUITE_P(Grid, FlowOsrSweep,
                         ::testing::Values(4.0, 8.0, 16.0, 32.0, 64.0));

/// FNV-1a over the bit patterns of every double in a FlowResult, in a
/// fixed order, with vector lengths mixed in so a dropped or extra
/// element changes the digest too.
class FlowDigest {
 public:
  void add(double v) { add_word(std::bit_cast<std::uint64_t>(v)); }
  void add(std::complex<double> v) {
    add(v.real());
    add(v.imag());
  }
  template <typename T>
  void add(const std::vector<T>& v) {
    add_word(v.size());
    for (const T& x : v) add(x);
  }
  void add(const std::vector<fx::Csd>& v) {
    add_word(v.size());
    for (const fx::Csd& c : v) add(c.to_double());
  }
  std::uint64_t value() const { return h_; }

 private:
  void add_word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t flow_digest(const FlowResult& r) {
  FlowDigest d;
  const auto& m = r.modulator_spec;
  for (double v : {m.osr, m.obg, m.sample_rate_hz, m.bandwidth_hz, m.msa}) {
    d.add(v);
  }
  const auto& s = r.decimator_spec;
  for (double v : {s.passband_ripple_db, s.passband_edge_hz,
                   s.stopband_edge_hz, s.stopband_atten_db, s.output_rate_hz,
                   s.target_snr_db}) {
    d.add(v);
  }
  d.add(r.options.hbf_atten_target_db);
  d.add(r.ntf.zeros);
  d.add(r.ntf.poles);
  d.add(r.ciff.a);
  d.add(r.ciff.g);
  d.add(r.ciff.c);
  d.add(r.ciff.b0);
  d.add(r.predicted_sqnr_db);
  d.add(r.msa);
  const auto& h = r.chain.hbf;
  d.add(h.f1);
  d.add(h.f2);
  d.add(h.f1_csd);
  d.add(h.f2_csd);
  d.add(h.taps);
  for (double v : {h.passband_edge, h.stopband_atten_db,
                   h.passband_ripple_db}) {
    d.add(v);
  }
  d.add(r.chain.scale);
  d.add(r.chain.equalizer_taps);
  d.add(r.chain.input_rate_hz);
  d.add(r.passband_ripple_db);
  d.add(r.alias_protection_db);
  return d.value();
}

// Bit-exact regression lock on the whole design flow: any change to a
// response sweep, search or fit that moves one bit of any result double
// for these three specs changes a digest.
TEST(Flow, GoldenDigest) {
  struct Case {
    const char* name;
    mod::ModulatorSpec m;
    mod::DecimatorSpec d;
    std::uint64_t digest;
  };
  std::vector<Case> cases;
  cases.push_back({"paper", mod::paper_modulator_spec(),
                   mod::paper_decimator_spec(), 0x5b124ee129154294ull});
  Case w{"wcdma", {}, {}, 0x3ebb0015ae169400ull};  // W-CDMA-like: 5 MHz, OSR 32
  w.m.order = 4;
  w.m.osr = 32.0;
  w.m.obg = 2.5;
  w.m.sample_rate_hz = 320e6;
  w.m.bandwidth_hz = 5e6;
  w.m.msa = 0.85;
  w.d.passband_edge_hz = 5e6;
  w.d.stopband_edge_hz = 5.75e6;
  w.d.output_rate_hz = 10e6;
  w.d.target_snr_db = 85.0;
  cases.push_back(w);
  Case x{"wimax", {}, {}, 0x15e39dbaad4475f4ull};  // 802.16x-like: 10 MHz, OSR 16
  x.m.sample_rate_hz = 320e6;
  x.m.bandwidth_hz = 10e6;
  x.d.passband_edge_hz = 10e6;
  x.d.stopband_edge_hz = 11.5e6;
  x.d.output_rate_hz = 20e6;
  cases.push_back(x);
  for (const char* threads : kThreadCounts) {
    const testutil::EnvGuard env("DSADC_VERIFY_THREADS", threads);
    for (const Case& c : cases) {
      const FlowResult r = DesignFlow::design(c.m, c.d);
      EXPECT_EQ(flow_digest(r), c.digest)
          << c.name << " at " << threads << " threads: 0x" << std::hex
          << flow_digest(r);
    }
  }
}

TEST(Flow, VerifyIdenticalAcrossThreadCounts) {
  // The quantized and wide chains are measured concurrently; every field
  // must come out as the inline (1-thread) run computes it.
  const FlowResult r = DesignFlow::design(mod::paper_modulator_spec(),
                                          mod::paper_decimator_spec());
  std::optional<core::VerificationResult> want;
  for (const char* threads : kThreadCounts) {
    const testutil::EnvGuard env("DSADC_VERIFY_THREADS", threads);
    const core::VerificationResult v = DesignFlow::verify(r, 5e6, 1 << 15);
    if (!want) {
      want = v;
      continue;
    }
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    EXPECT_EQ(v.snr_db, want->snr_db);
    EXPECT_EQ(v.enob_bits, want->enob_bits);
    EXPECT_EQ(v.snr_unquantized_db, want->snr_unquantized_db);
    EXPECT_EQ(v.snr_ok, want->snr_ok);
    EXPECT_EQ(v.tone_freq_hz, want->tone_freq_hz);
  }
}

TEST(FlowRetarget, RejectsNonPowerOfTwoOsr) {
  mod::ModulatorSpec m = mod::paper_modulator_spec();
  m.osr = 12.0;
  EXPECT_THROW(DesignFlow::design(m, mod::paper_decimator_spec()),
               std::invalid_argument);
}

TEST(FlowRetarget, RejectsIncompatibleHalfbandEdge) {
  mod::DecimatorSpec d = mod::paper_decimator_spec();
  d.stopband_edge_hz = 45e6;  // beyond what a final /2 halfband can do
  EXPECT_THROW(DesignFlow::design(mod::paper_modulator_spec(), d),
               std::invalid_argument);
}

/// "<type>: <what>" of the exception `f` throws, or "" if none.
template <typename F>
std::string thrown(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return "";
}

TEST(FlowRetarget, ErrorPrecedenceMatchesSerial) {
  // The modulator and filter branches run side by side. When both fail,
  // the modulator model's error must still win, as when the steps ran
  // one after the other, whatever the thread count and MSA mode.
  mod::ModulatorSpec bad_obg = mod::paper_modulator_spec();
  bad_obg.obg = 0.5;  // synthesize_ntf: invalid_argument
  mod::ModulatorSpec low_obg = mod::paper_modulator_spec();
  low_obg.obg = 1.01;  // synthesize_ntf: runtime_error
  mod::DecimatorSpec bad_edge = mod::paper_decimator_spec();
  bad_edge.stopband_edge_hz = 45e6;  // halfband edge: invalid_argument
  FlowOptions unreachable;
  unreachable.hbf_atten_target_db = 400.0;  // HBF search: runtime_error
  struct Case {
    mod::ModulatorSpec m;
    mod::DecimatorSpec d;
    FlowOptions o;
  };
  const Case cases[] = {{bad_obg, bad_edge, {}},
                        {bad_obg, mod::paper_decimator_spec(), unreachable},
                        {low_obg, bad_edge, {}},
                        {low_obg, mod::paper_decimator_spec(), unreachable}};
  for (const Case& c : cases) {
    const std::string step1 = thrown(
        [&] { mod::synthesize_ntf(c.m.order, c.m.osr, c.m.obg, true); });
    ASSERT_NE(step1, "");
    ASSERT_NE(thrown([&] {
                DesignFlow::design(mod::paper_modulator_spec(), c.d, c.o);
              }),
              "")
        << "the filter branch must fail on its own too";
    for (const bool measure_msa : {false, true}) {
      FlowOptions o = c.o;
      o.measure_msa = measure_msa;
      for (const char* threads : kThreadCounts) {
        const testutil::EnvGuard env("DSADC_VERIFY_THREADS", threads);
        EXPECT_EQ(thrown([&] { DesignFlow::design(c.m, c.d, o); }), step1)
            << threads << " threads, measure_msa " << measure_msa;
      }
    }
  }
}

}  // namespace
