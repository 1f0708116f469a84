// Equivalence of the batched lane counters with per-id add(): add_batch
// must be bit-identical to per-frame feeding, including across lane spills
// inside one batch and between batches, and at window boundaries. Both
// compilations of lane_add (default and AVX2) must agree on the same rows.
#include "ids/bit_counters.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "ids/window.h"
#include "util/rng.h"

namespace canids::ids {
namespace {

[[nodiscard]] std::vector<std::uint32_t> random_ids(std::size_t count,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<std::uint32_t>(rng.below(can::kMaxStdId + 1)));
  }
  return ids;
}

TEST(LaneAddTest, AddBatchMatchesPerAdd) {
  // Long enough to cross the 0xFFFF-frame lane spill mid-batch.
  const std::vector<std::uint32_t> ids = random_ids(70'000, 11);

  BitCounters reference;
  for (const std::uint32_t id : ids) reference.add(id);

  BitCounters batched;
  batched.add_batch(ids.data(), ids.size());
  ASSERT_EQ(batched.total(), reference.total());
  for (int bit = 0; bit < can::kStdIdBits; ++bit) {
    EXPECT_EQ(batched.ones(bit), reference.ones(bit)) << "bit " << bit;
  }
}

TEST(LaneAddTest, SplitBatchesMatchOneBatch) {
  // 70 000 ids cross the 0xFFFF (65 535) spill once. The 60 000-id chunk
  // leaves lanes pending that the 6 000-id chunk carries over the spill
  // point, so the spill lands inside a later add_batch call than the one
  // that filled the lanes. The first and last bits are set in every id, so
  // their 16-bit lanes would wrap if that spill were missed.
  std::vector<std::uint32_t> ids = random_ids(70'000, 23);
  for (std::uint32_t& id : ids) id |= 0x401;
  BitCounters whole;
  whole.add_batch(ids.data(), ids.size());
  BitCounters pieces;
  std::size_t i = 0;
  for (const std::size_t chunk :
       {1u, 7u, 63u, 500u, 60'000u, 6'000u, 3'429u}) {
    pieces.add_batch(ids.data() + i, chunk);
    i += chunk;
  }
  ASSERT_EQ(i, ids.size());
  ASSERT_EQ(pieces.total(), whole.total());
  for (int bit = 0; bit < can::kStdIdBits; ++bit) {
    EXPECT_EQ(pieces.ones(bit), whole.ones(bit)) << "bit " << bit;
  }
}

TEST(LaneAddTest, DefaultAndAvx2VariantsAgree) {
  // lane_add picks one variant per process, so an AVX2 host never runs the
  // default loop through add_batch; run both here on the same rows.
  std::vector<std::uint64_t> table(64 * kLaneRowWords);
  util::Rng rng(5);
  for (std::uint64_t& word : table) word = rng.below(1u << 20);
  const std::vector<std::uint32_t> ids = random_ids(1'000, 17);
  constexpr std::uint32_t kMask = 63;

  std::array<std::uint64_t, kLaneRowWords> expected{1, 2, 3, 4};
  for (const std::uint32_t id : ids) {
    for (int w = 0; w < kLaneRowWords; ++w) {
      expected[static_cast<std::size_t>(w)] +=
          table[(id & kMask) * kLaneRowWords + static_cast<std::size_t>(w)];
    }
  }

  std::array<std::uint64_t, kLaneRowWords> by_default{1, 2, 3, 4};
  detail::lane_add_default(by_default.data(), table.data(), kMask, ids.data(),
                           ids.size());
  EXPECT_EQ(by_default, expected);

#if defined(__x86_64__)
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "CPU lacks AVX2";
  std::array<std::uint64_t, kLaneRowWords> by_avx2{1, 2, 3, 4};
  detail::lane_add_avx2(by_avx2.data(), table.data(), kMask, ids.data(),
                        ids.size());
  EXPECT_EQ(by_avx2, expected);
#else
  GTEST_SKIP() << "no AVX2 variant on this architecture";
#endif
}

TEST(LaneAddTest, PairCountersBatchMatchesPerAddBothModes) {
  const std::vector<std::uint32_t> ids = random_ids(4'096, 7);
  for (const bool with_pairs : {true, false}) {
    PairCounters reference;
    for (const std::uint32_t id : ids) {
      if (with_pairs) {
        reference.add(id);
      } else {
        reference.add_marginal(id);
      }
    }
    PairCounters batched;
    batched.add_batch(ids.data(), ids.size(), with_pairs);
    EXPECT_EQ(batched.total(), reference.total());
    EXPECT_EQ(batched.marginals().probabilities(),
              reference.marginals().probabilities());
    if (with_pairs) {
      EXPECT_EQ(batched.pair_probabilities(), reference.pair_probabilities());
    }
  }
}

TEST(LaneAddTest, WindowAccumulatorBatchMatchesPerFrame) {
  // 8 seconds of irregular traffic with a 3-second silence gap, so the
  // batch path must close windows mid-block and skip the silent ones.
  util::Rng rng(99);
  std::vector<can::TimedId> frames;
  util::TimeNs now = 0;
  for (int i = 0; i < 4'000; ++i) {
    now += static_cast<util::TimeNs>(rng.below(2'000'000)) + 1;
    if (i == 2'000) now += 3 * util::kSecond;
    frames.push_back(can::TimedId{
        now,
        can::CanId::standard(static_cast<std::uint32_t>(rng.below(0x800)))});
  }

  for (const bool track_pairs : {true, false}) {
    WindowConfig config;
    config.track_pairs = track_pairs;

    WindowAccumulator reference(config);
    std::vector<WindowSnapshot> expected;
    for (const can::TimedId& frame : frames) {
      if (auto snap = reference.add(frame.timestamp, frame.id)) {
        expected.push_back(std::move(*snap));
      }
    }

    // Feed the same stream in uneven blocks.
    WindowAccumulator accumulator(config);
    std::vector<WindowSnapshot> got;
    std::size_t i = 0;
    while (i < frames.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(frames.size() - i, 1 + rng.below(700));
      accumulator.add_batch(frames.data() + i, chunk, got);
      i += chunk;
    }

    ASSERT_EQ(got.size(), expected.size()) << "pairs=" << track_pairs;
    for (std::size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(got[w], expected[w]) << "window " << w;
    }
    EXPECT_EQ(accumulator.flush().has_value(), reference.flush().has_value());
  }
}

}  // namespace
}  // namespace canids::ids
