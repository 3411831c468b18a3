// Runtime SIMD dispatch: tier selection and cross-tier bit-exactness.
//
// The bank kernels are compiled once per tier (scalar / AVX2 / AVX-512)
// from the same source; the dispatcher must pick only tiers the CPU
// supports, honour forced tiers, and -- the property everything rests on
// -- produce bit-identical outputs AND fx event-counter totals on every
// tier, so CPU dispatch can never change numerical results.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/decimator/chain.h"
#include "src/decimator/simd.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/runtime/multichannel.h"
#include "tests/push_chain.h"

namespace {

using namespace dsadc;
using decim::simd::Tier;

std::vector<Tier> supported_tiers() {
  std::vector<Tier> tiers;
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (decim::simd::tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

/// Restore the dispatcher's best tier when a test ends.
struct TierGuard {
  ~TierGuard() { decim::simd::set_active_tier(decim::simd::best_tier()); }
};

TEST(SimdDispatch, ScalarTierAlwaysSupported) {
  EXPECT_TRUE(decim::simd::tier_supported(Tier::kScalar));
  const Tier best = decim::simd::best_tier();
  EXPECT_TRUE(decim::simd::tier_supported(best));
}

TEST(SimdDispatch, ForcingSupportedTierSticks) {
  TierGuard guard;
  for (Tier t : supported_tiers()) {
    EXPECT_TRUE(decim::simd::set_active_tier(t))
        << decim::simd::tier_name(t);
    EXPECT_EQ(decim::simd::active_tier(), t);
    // The table must be tier-specific state, not a dangling default.
    EXPECT_NE(decim::simd::kernels().cic_stage, nullptr);
  }
}

TEST(SimdDispatch, ForcingUnsupportedTierIsRefused) {
  TierGuard guard;
  ASSERT_TRUE(decim::simd::set_active_tier(Tier::kScalar));
  for (Tier t : {Tier::kAvx2, Tier::kAvx512}) {
    if (decim::simd::tier_supported(t)) continue;
    EXPECT_FALSE(decim::simd::set_active_tier(t));
    EXPECT_EQ(decim::simd::active_tier(), Tier::kScalar);
  }
}

TEST(SimdDispatch, TierNames) {
  EXPECT_STREQ(decim::simd::tier_name(Tier::kScalar), "scalar");
  EXPECT_STREQ(decim::simd::tier_name(Tier::kAvx2), "avx2");
  EXPECT_STREQ(decim::simd::tier_name(Tier::kAvx512), "avx512");
}

// Every supported tier, at width 1 (the instantiation DecimationChain
// runs) and at 16 lanes, must match the push() oracle: each lane's
// samples and every per-site fx counter.
TEST(SimdDispatch, BankBitIdenticalAcrossTiers) {
  TierGuard guard;
  obs::set_enabled(true);
  const auto cfg = decim::paper_chain_config();
  constexpr std::size_t kFrames = 1 << 10;

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{16}}) {
    std::vector<std::vector<std::int32_t>> codes(
        lanes, std::vector<std::int32_t>(kFrames));
    unsigned s = 0x5111D;
    for (std::size_t f = 0; f < kFrames; ++f) {
      for (auto& lane : codes) {
        s = s * 1664525u + 1013904223u;
        lane[f] = static_cast<std::int32_t>((s >> 24) % 15) - 7;
      }
    }
    obs::Registry::instance().reset_all();
    std::vector<std::vector<std::int64_t>> want;
    for (const auto& lane : codes) {
      want.push_back(testutil::PushChain(cfg).process(lane));
    }
    const auto want_fx = testutil::fx_snapshot();
    EXPECT_FALSE(want[0].empty());

    std::vector<std::vector<std::int64_t>> in;
    for (const auto& lane : codes) in.emplace_back(lane.begin(), lane.end());
    for (Tier t : supported_tiers()) {
      ASSERT_TRUE(decim::simd::set_active_tier(t));
      obs::Registry::instance().reset_all();
      decim::ChainBank bank(cfg, lanes);
      const auto got = testutil::run_bank(bank, in, kFrames);
      EXPECT_EQ(got, want) << decim::simd::tier_name(t) << ", " << lanes
                           << " lanes";
      EXPECT_EQ(testutil::fx_snapshot(), want_fx)
          << decim::simd::tier_name(t) << ", " << lanes << " lanes";
    }
  }
}

TEST(SimdDispatch, RuntimeBitIdenticalAcrossTiers) {
  TierGuard guard;
  const auto cfg = decim::paper_chain_config();
  constexpr std::size_t kChannels = 40;
  constexpr std::size_t kFrames = 512;

  std::vector<std::vector<std::int32_t>> codes(
      kChannels, std::vector<std::int32_t>(kFrames));
  unsigned s = 0xD15B;
  for (auto& ch : codes) {
    for (auto& v : ch) {
      s = s * 1664525u + 1013904223u;
      v = static_cast<std::int32_t>((s >> 24) % 15) - 7;
    }
  }

  std::vector<std::vector<std::int64_t>> ref;
  for (const auto& ch : codes) {
    ref.push_back(testutil::PushChain(cfg).process(ch));
  }
  for (Tier t : supported_tiers()) {
    ASSERT_TRUE(decim::simd::set_active_tier(t));
    runtime::MultiChannelRuntime rt(cfg, kChannels);
    std::vector<std::vector<std::int64_t>> out;
    rt.process_into(codes, out);
    EXPECT_EQ(out, ref) << "tier " << decim::simd::tier_name(t);
  }
}

}  // namespace
