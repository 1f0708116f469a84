#include "ids/bit_counters.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace canids::ids {
namespace {

TEST(BitCountersTest, EmptyState) {
  BitCounters counters;
  EXPECT_EQ(counters.total(), 0u);
  EXPECT_EQ(counters.ones(0), 0u);
  EXPECT_THROW((void)counters.probability(0), canids::ContractViolation);
}

TEST(BitCountersTest, SingleIdCounted) {
  BitCounters counters;
  counters.add(0x400u);  // only MSB set
  EXPECT_EQ(counters.total(), 1u);
  EXPECT_DOUBLE_EQ(counters.probability(0), 1.0);
  for (int i = 1; i < 11; ++i) {
    EXPECT_DOUBLE_EQ(counters.probability(i), 0.0);
  }
}

TEST(BitCountersTest, MixedStreamProbabilities) {
  BitCounters counters;
  counters.add(0x7FFu);
  counters.add(0x000u);
  counters.add(0x7FFu);
  counters.add(0x000u);
  for (int i = 0; i < 11; ++i) {
    EXPECT_DOUBLE_EQ(counters.probability(i), 0.5);
  }
  const auto entropies = counters.entropies();
  for (double h : entropies) EXPECT_DOUBLE_EQ(h, 1.0);
}

TEST(BitCountersTest, MatchesBruteForceRecount) {
  util::Rng rng(14);
  BitCounters counters;
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 5000; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.below(0x800));
    ids.push_back(id);
    counters.add(id);
  }
  for (int bit = 0; bit < 11; ++bit) {
    std::uint64_t expected = 0;
    for (std::uint32_t id : ids) {
      expected += (id >> (10 - bit)) & 1u;
    }
    EXPECT_EQ(counters.ones(bit), expected) << "bit " << bit;
  }
}

TEST(BitCountersTest, ResetClearsEverything) {
  BitCounters counters;
  counters.add(0x7FFu);
  counters.reset();
  EXPECT_EQ(counters.total(), 0u);
  EXPECT_EQ(counters.ones(5), 0u);
}

TEST(BitCountersTest, AddCanIdChecksWidth) {
  BitCounters counters;
  counters.add(can::CanId::standard(0x123));
  EXPECT_EQ(counters.total(), 1u);
  EXPECT_THROW(counters.add(can::CanId::extended(0x123)),
               canids::ContractViolation);
}

TEST(BitCountersTest, StateBytesIsConstantAndSmall) {
  // The §V.E claim: per-bus state independent of traffic. 11 counters
  // padded to whole lane words for the lane spill (12 * 8 bytes) + total
  // (8) plus the hot path's lane accumulator padded to one 256-bit vector
  // (32) and pending count (4).
  EXPECT_EQ(BitCounters::state_bytes(), 96u + 8u + 32u + 4u);
}

TEST(BitCountersTest, OnesRejectsOutOfRangeBit) {
  BitCounters counters;
  counters.add(0u);
  EXPECT_THROW((void)counters.ones(11), canids::ContractViolation);
  EXPECT_THROW((void)counters.ones(-1), canids::ContractViolation);
}

// Property sweep: for streams of a single repeated ID, probability(i)
// equals exactly that ID's bit pattern, hence entropy is exactly zero.
class SingleIdStreamProperty
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SingleIdStreamProperty, DegenerateDistributionHasZeroEntropy) {
  BitCounters counters;
  for (int i = 0; i < 100; ++i) counters.add(GetParam());
  for (int bit = 0; bit < 11; ++bit) {
    const double expected_bit =
        static_cast<double>((GetParam() >> (10 - bit)) & 1u);
    EXPECT_DOUBLE_EQ(counters.probability(bit), expected_bit);
  }
  for (double h : counters.entropies()) EXPECT_DOUBLE_EQ(h, 0.0);
}

INSTANTIATE_TEST_SUITE_P(IdGrid, SingleIdStreamProperty,
                         ::testing::Values(0x000u, 0x001u, 0x0D1u, 0x123u,
                                           0x2A7u, 0x400u, 0x555u, 0x6EFu,
                                           0x7FFu));

// --- Pairwise co-occurrence counters (inference extension) ---------------

TEST(PairIndexTest, FlatLayoutIsDenseAndOrdered) {
  int expected = 0;
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 11; ++j) {
      EXPECT_EQ(pair_index(i, j, 11), expected);
      ++expected;
    }
  }
  EXPECT_EQ(expected, pair_count(11));
  EXPECT_EQ(pair_count(11), 55);
  EXPECT_EQ(pair_count(29), 406);
}

TEST(PairCountersTest, AllOnesIdSetsEveryPair) {
  PairCounters counters;
  counters.add(0x7FFu);
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 11; ++j) {
      EXPECT_DOUBLE_EQ(counters.pair_probability(i, j), 1.0);
    }
  }
}

TEST(PairCountersTest, MarginalsSharedWithPlainCounters) {
  util::Rng rng(19);
  PairCounters pair_counters;
  BitCounters plain;
  for (int i = 0; i < 2000; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.below(0x800));
    pair_counters.add(id);
    plain.add(id);
  }
  EXPECT_EQ(pair_counters.total(), plain.total());
  for (int bit = 0; bit < 11; ++bit) {
    EXPECT_EQ(pair_counters.marginals().ones(bit), plain.ones(bit));
  }
}

TEST(PairCountersTest, MatchesBruteForcePairRecount) {
  util::Rng rng(23);
  PairCounters counters;
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 3000; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.below(0x800));
    ids.push_back(id);
    counters.add(id);
  }
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 11; ++j) {
      std::uint64_t expected = 0;
      for (std::uint32_t id : ids) {
        const bool bi = ((id >> (10 - i)) & 1u) != 0;
        const bool bj = ((id >> (10 - j)) & 1u) != 0;
        if (bi && bj) ++expected;
      }
      EXPECT_NEAR(counters.pair_probability(i, j),
                  static_cast<double>(expected) / 3000.0, 1e-12)
          << "pair (" << i << "," << j << ")";
    }
  }
}

TEST(PairCountersTest, PairBoundedByMarginals) {
  // q_ij <= min(p_i, p_j) and q_ij >= p_i + p_j - 1 (Frechet bounds).
  util::Rng rng(29);
  PairCounters counters;
  for (int i = 0; i < 5000; ++i) {
    counters.add(static_cast<std::uint32_t>(rng.below(0x800)));
  }
  const auto p = counters.marginals().probabilities();
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 11; ++j) {
      const double q = counters.pair_probability(i, j);
      const auto bi = static_cast<std::size_t>(i);
      const auto bj = static_cast<std::size_t>(j);
      EXPECT_LE(q, std::min(p[bi], p[bj]) + 1e-12);
      EXPECT_GE(q, std::max(0.0, p[bi] + p[bj] - 1.0) - 1e-12);
    }
  }
}

TEST(PairCountersTest, ResetClearsPairs) {
  PairCounters counters;
  counters.add(0x7FFu);
  counters.reset();
  EXPECT_EQ(counters.total(), 0u);
  counters.add(0x000u);
  EXPECT_DOUBLE_EQ(counters.pair_probability(0, 1), 0.0);
}

TEST(PairCountersTest, StateStillConstantInIdCount) {
  // Marginal counter state + 55 pair counters, independent of how many
  // identifiers the bus carries.
  EXPECT_EQ(PairCounters::state_bytes(),
            BitCounters::state_bytes() + 55u * 8u);
}

TEST(PairCountersTest, PairProbabilityRejectsBadArgs) {
  PairCounters counters;
  counters.add(1u);
  EXPECT_THROW((void)counters.pair_probability(3, 3),
               canids::ContractViolation);
  EXPECT_THROW((void)counters.pair_probability(5, 2),
               canids::ContractViolation);
  EXPECT_THROW((void)counters.pair_probability(0, 11),
               canids::ContractViolation);
}

}  // namespace
}  // namespace canids::ids
