// Unit + property tests for the strategy layer (aggregation decisions,
// multirail striping).
#include <gtest/gtest.h>

#include <random>

#include "nmad/strategy.hpp"
#include "util/env.hpp"

namespace piom::nmad {
namespace {

TEST(Strategy, SingleRailNeverStripes) {
  const auto chunks = Strategy::stripe(10 << 20, {1.25});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].rail, 0);
  EXPECT_EQ(chunks[0].offset, 0u);
  EXPECT_EQ(chunks[0].len, std::size_t{10 << 20});
}

TEST(Strategy, SmallMessagesStayOnOneRail) {
  // Below 2x the min chunk: splitting would only add per-packet overhead.
  static_assert(100 * 1024 < 2 * kStripeMinChunk);
  const auto chunks = Strategy::stripe(100 * 1024, {1.25, 1.25});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].len, std::size_t{100 * 1024});
}

TEST(Strategy, EqualRailsSplitEvenly) {
  const auto chunks = Strategy::stripe(1 << 20, {1.25, 1.25});
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_NEAR(static_cast<double>(chunks[0].len),
              static_cast<double>(chunks[1].len), 1.0);
}

TEST(Strategy, BandwidthProportionalSplit) {
  // 1 : 3 bandwidth ratio -> 25% / 75% split; the 25% share (64 min
  // chunks) is far above the minimum, so rounding stays within 2%.
  constexpr std::size_t kLen = 256 * kStripeMinChunk;
  const auto chunks = Strategy::stripe(kLen, {1.0, 3.0});
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_NEAR(static_cast<double>(chunks[0].len), kLen * 0.25, kLen * 0.02);
  EXPECT_NEAR(static_cast<double>(chunks[1].len), kLen * 0.75, kLen * 0.02);
}

TEST(Strategy, ZeroAndOneByteLengthsNeverSplit) {
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}}) {
    const auto chunks = Strategy::stripe(len, {10.0, 1.25});
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].rail, 0);
    EXPECT_EQ(chunks[0].offset, 0u);
    EXPECT_EQ(chunks[0].len, len);
  }
}

TEST(Strategy, LatencyAwareEagerPicksTheFastRail) {
  // Heterogeneous rails: the strictly fastest one takes all eager traffic,
  // regardless of its position.
  EXPECT_EQ(Strategy::select_eager_rail({0.15, 1.8}), 0);
  EXPECT_EQ(Strategy::select_eager_rail({1.8, 0.15}), 1);
  EXPECT_EQ(Strategy::select_eager_rail({1.8, 1.8, 0.15}), 2);
  // Homogeneous rails fall back to rail 0.
  EXPECT_EQ(Strategy::select_eager_rail({1.8, 1.8}), 0);
  // A tie at the minimum is homogeneous too.
  EXPECT_EQ(Strategy::select_eager_rail({0.15, 0.15, 1.8}), 0);
  // Single rail short-circuits.
  EXPECT_EQ(Strategy::select_eager_rail(std::vector<double>{0.15}), 0);
}

// Property: for random sizes and rail sets, the chunks always partition
// [0, len) exactly, never overlap, are rail-sorted, and each non-final chunk
// respects the minimum chunk size.
TEST(StrategyProperty, StripeAlwaysCoversExactly) {
  std::mt19937 rng(2024);
  for (int iter = 0; iter < 500; ++iter) {
    // Up to 512 min chunks: short lengths stay whole, long ones split
    // across up to 4 rails.
    const std::size_t len = rng() % (512 * kStripeMinChunk);
    const int nrails = 1 + static_cast<int>(rng() % 4);
    std::vector<double> bw;
    for (int r = 0; r < nrails; ++r) {
      bw.push_back(0.5 + static_cast<double>(rng() % 100) / 10.0);
    }
    const auto chunks = Strategy::stripe(len, bw);
    ASSERT_FALSE(chunks.empty());
    std::size_t expected_offset = 0;
    int last_rail = -1;
    for (const StripeChunk& c : chunks) {
      EXPECT_EQ(c.offset, expected_offset) << "gap or overlap";
      EXPECT_GT(c.rail, last_rail) << "rails must be strictly increasing";
      EXPECT_LT(c.rail, nrails);
      last_rail = c.rail;
      expected_offset += c.len;
    }
    EXPECT_EQ(expected_offset, len) << "chunks must cover the whole message";
    if (chunks.size() > 1) {
      for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
        EXPECT_GE(chunks[i].len, kStripeMinChunk);
      }
    }
  }
}

TEST(Strategy, ShouldPackRespectsLimits) {
  Strategy s(true);
  EXPECT_FALSE(s.should_pack(1, 100));  // a single message is not a pack
  EXPECT_TRUE(s.should_pack(2, 100));
  EXPECT_TRUE(s.should_pack(kMaxPackMsgs, kMaxPackBytes));
  EXPECT_FALSE(s.should_pack(kMaxPackMsgs + 1, 100));  // too many messages
  EXPECT_FALSE(s.should_pack(2, kMaxPackBytes + 1));   // too many bytes
}

TEST(Strategy, ShouldPackOffWithoutAggregation) {
  // Pinned explicitly off (not default): the default defers to
  // $PIOM_AGGREGATION, and this test must hold in the forced-aggregation
  // CI pass too.
  Strategy s(false);
  EXPECT_FALSE(s.should_pack(8, 100));
}

TEST(Strategy, AggregationUnsetFollowsEnvironment) {
  Strategy s(std::nullopt);
  EXPECT_EQ(s.aggregation(),
            piom::util::env::boolean("PIOM_AGGREGATION", false));
}

TEST(Strategy, EagerRailDefaultIsZero) {
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(Strategy::select_eager_rail({1.8, 1.8, 1.8, 1.8}), 0);
  }
}

}  // namespace
}  // namespace piom::nmad
