#include "can/arbitration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace canids::can {
namespace {

Frame data(std::uint32_t id) {
  return Frame::data_frame(CanId::standard(id), {});
}

/// True if `a` wins a two-frame round outright against `b`.
bool wins(const Frame& a, const Frame& b) {
  const Frame contenders[] = {a, b};
  const ArbitrationResult result = arbitrate(contenders);
  return result.winner == 0 && result.tied_with_winner.empty();
}

TEST(ArbitrationBitsTest, StandardDataFrame) {
  // 11 ID bits + RTR(0) + IDE(0) = 13 bits, all observable dominance.
  const BitString bits = arbitration_bits(data(0x555));
  EXPECT_EQ(bits.size(), 13u);
  EXPECT_EQ(bits.to_string(), "1010101010100");
}

TEST(ArbitrationBitsTest, RemoteFrameSendsRecessiveRtr) {
  const BitString bits =
      arbitration_bits(Frame::remote_frame(CanId::standard(0x555), 0));
  EXPECT_TRUE(bits[11]);  // RTR recessive
}

TEST(ArbitrationBitsTest, ExtendedFrameLayout) {
  const BitString bits =
      arbitration_bits(Frame::data_frame(CanId::extended(0), {}));
  // 11 + SRR + IDE + 18 + RTR = 32
  EXPECT_EQ(bits.size(), 32u);
  EXPECT_TRUE(bits[11]);  // SRR recessive
  EXPECT_TRUE(bits[12]);  // IDE recessive
}

TEST(ArbitrationWinsTest, LowerIdWins) {
  EXPECT_TRUE(wins(data(0x100), data(0x200)));
  EXPECT_FALSE(wins(data(0x200), data(0x100)));
}

TEST(ArbitrationWinsTest, DataFrameBeatsRemoteFrameOfSameId) {
  const Frame d = data(0x123);
  const Frame r = Frame::remote_frame(CanId::standard(0x123), 0);
  EXPECT_TRUE(wins(d, r));
  EXPECT_FALSE(wins(r, d));
}

TEST(ArbitrationWinsTest, StandardBeatsExtendedWithSameLeadingBits) {
  // Extended ID whose top 11 bits equal 0x123: raw = 0x123 << 18.
  const Frame std_frame = data(0x123);
  const Frame ext_frame =
      Frame::data_frame(CanId::extended(0x123u << 18), {});
  EXPECT_TRUE(wins(std_frame, ext_frame));
  EXPECT_FALSE(wins(ext_frame, std_frame));
}

TEST(ArbitrationWinsTest, DominantExtendedBeatsRecessiveStandard) {
  // An extended frame with all-dominant leading bits beats a standard frame
  // whose leading bits are recessive.
  const Frame ext_low = Frame::data_frame(CanId::extended(0), {});
  const Frame std_high = data(0x7FF);
  EXPECT_TRUE(wins(ext_low, std_high));
}

TEST(ArbitrateTest, SingleContenderWinsTrivially) {
  const std::vector<Frame> contenders = {data(0x7FF)};
  const ArbitrationResult result = arbitrate(contenders);
  EXPECT_EQ(result.winner, 0u);
  EXPECT_TRUE(result.tied_with_winner.empty());
  EXPECT_FALSE(result.lost_at_bit[0].has_value());
}

TEST(ArbitrateTest, RejectsEmptyContenderSet) {
  const std::vector<Frame> none;
  EXPECT_THROW((void)arbitrate(none), canids::ContractViolation);
}

TEST(ArbitrateTest, WinnerIsNumericMinimumForStandardFrames) {
  util::Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Frame> contenders;
    const int n = 2 + static_cast<int>(rng.below(8));
    std::vector<std::uint32_t> ids;
    while (static_cast<int>(ids.size()) < n) {
      const auto id = static_cast<std::uint32_t>(rng.below(0x800));
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    for (std::uint32_t id : ids) contenders.push_back(data(id));

    const ArbitrationResult result = arbitrate(contenders);
    const auto min_it = std::min_element(ids.begin(), ids.end());
    EXPECT_EQ(ids[result.winner], *min_it);
    EXPECT_TRUE(result.tied_with_winner.empty());
  }
}

TEST(ArbitrateTest, OutcomeInvariantToContenderOrder) {
  util::Rng rng(32);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint32_t> ids;
    while (ids.size() < 5) {
      const auto id = static_cast<std::uint32_t>(rng.below(0x800));
      if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
        ids.push_back(id);
      }
    }
    std::vector<Frame> forward;
    std::vector<Frame> reversed;
    for (std::uint32_t id : ids) forward.push_back(data(id));
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      reversed.push_back(data(*it));
    }
    const auto rf = arbitrate(forward);
    const auto rr = arbitrate(reversed);
    EXPECT_EQ(forward[rf.winner].id().raw(), reversed[rr.winner].id().raw());
  }
}

TEST(ArbitrateTest, LosersRecordTheBitWhereTheyDropped) {
  // 0x400 (100...0) vs 0x000 (000...0): the loser transmits recessive at
  // bit 0 of the ID field.
  const std::vector<Frame> contenders = {data(0x400), data(0x000)};
  const ArbitrationResult result = arbitrate(contenders);
  EXPECT_EQ(result.winner, 1u);
  ASSERT_TRUE(result.lost_at_bit[0].has_value());
  EXPECT_EQ(*result.lost_at_bit[0], 0u);

  // 0x001 vs 0x000 differ only in the last ID bit (position 10).
  const std::vector<Frame> close = {data(0x001), data(0x000)};
  const ArbitrationResult r2 = arbitrate(close);
  EXPECT_EQ(r2.winner, 1u);
  ASSERT_TRUE(r2.lost_at_bit[0].has_value());
  EXPECT_EQ(*r2.lost_at_bit[0], 10u);
}

TEST(ArbitrateTest, LostBitPositionNeverBeforeFirstDifference) {
  util::Rng rng(33);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = static_cast<std::uint32_t>(rng.below(0x800));
    auto b = static_cast<std::uint32_t>(rng.below(0x800));
    if (a == b) b ^= 1;
    const std::vector<Frame> contenders = {data(a), data(b)};
    const ArbitrationResult result = arbitrate(contenders);
    const std::size_t loser = result.winner == 0 ? 1 : 0;
    ASSERT_TRUE(result.lost_at_bit[loser].has_value());
    // First differing ID bit (MSB-first scan).
    std::size_t first_diff = 0;
    for (int i = 0; i < 11; ++i) {
      if (((a >> (10 - i)) & 1) != ((b >> (10 - i)) & 1)) {
        first_diff = static_cast<std::size_t>(i);
        break;
      }
    }
    EXPECT_EQ(*result.lost_at_bit[loser], first_diff);
  }
}

TEST(ArbitrateTest, IdenticalFramesReportedAsTie) {
  const std::vector<Frame> contenders = {data(0x123), data(0x123),
                                         data(0x124)};
  const ArbitrationResult result = arbitrate(contenders);
  EXPECT_EQ(result.winner, 0u);
  ASSERT_EQ(result.tied_with_winner.size(), 1u);
  EXPECT_EQ(result.tied_with_winner[0], 1u);
}

TEST(ArbitrateTest, MixedFormatsFieldOrdering) {
  // Priority order here: std 0x100 < ext (0x100<<18)+5 < std 0x101.
  const Frame s_low = data(0x100);
  const Frame e_mid = Frame::data_frame(CanId::extended((0x100u << 18) + 5), {});
  const Frame s_high = data(0x101);
  const std::vector<Frame> contenders = {s_high, e_mid, s_low};
  const ArbitrationResult result = arbitrate(contenders);
  EXPECT_EQ(result.winner, 2u);
}

}  // namespace
}  // namespace canids::can
