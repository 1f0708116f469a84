#include "engine/spsc_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

namespace canids::engine {
namespace {

// The ring holds a power of two slots, one of them always empty.
TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  const std::vector<int> values(4096, 7);
  for (const auto& [min_capacity, usable] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {3, 3}, {10, 15},
        {1024, 2047}}) {
    SpscQueue<int> queue(min_capacity);
    EXPECT_EQ(queue.try_push_batch(values.data(), values.size()), usable)
        << min_capacity;
  }
}

TEST(SpscQueueTest, FifoOrderSingleThread) {
  SpscQueue<int> queue(8);
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(queue.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 100), 7u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(queue.pop_batch(out, 100), 0u);
}

TEST(SpscQueueTest, PushFailsWhenFullPopFailsWhenEmpty) {
  SpscQueue<int> queue(2);  // capacity 4, usable 3
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 1), 0u);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3));
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_EQ(queue.size_approx(), 3u);
  EXPECT_EQ(queue.pop_batch(out, 1), 1u);
  EXPECT_TRUE(queue.try_push(4));  // slot freed, wraps around
  EXPECT_EQ(queue.pop_batch(out, 100), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SpscQueueTest, PopBatchDrainsInOrder) {
  SpscQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(queue.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 4), 4u);
  EXPECT_EQ(queue.pop_batch(out, 100), 6u);
  EXPECT_EQ(queue.pop_batch(out, 4), 0u);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(out, expected);
}

TEST(SpscQueueTest, PushBatchFillsUpToCapacity) {
  SpscQueue<int> queue(4);  // capacity 8, usable 7
  const int values[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(queue.try_push_batch(values, 10), 7u);
  EXPECT_EQ(queue.try_push_batch(values + 7, 3), 0u);
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  out.clear();
  EXPECT_EQ(queue.try_push_batch(values + 7, 3), 3u);  // wraps around
  EXPECT_EQ(queue.pop_batch(out, 100), 7u);
  EXPECT_EQ(out, (std::vector<int>{3, 4, 5, 6, 7, 8, 9}));
}

TEST(SpscQueueTest, TransfersEverythingAcrossThreadsInOrder) {
  constexpr std::uint32_t kCount = 200'000;
  SpscQueue<std::uint32_t> queue(64);  // small: forces wrap + contention

  std::thread producer([&queue] {
    for (std::uint32_t i = 0; i < kCount; ++i) {
      while (!queue.try_push(i)) std::this_thread::yield();
    }
  });

  std::vector<std::uint32_t> received;
  received.reserve(kCount);
  std::vector<std::uint32_t> batch;
  while (received.size() < kCount) {
    batch.clear();
    if (queue.pop_batch(batch, 128) == 0) {
      std::this_thread::yield();
      continue;
    }
    received.insert(received.end(), batch.begin(), batch.end());
  }
  producer.join();

  ASSERT_EQ(received.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(received[i], i) << "reordered at " << i;
  }
  batch.clear();
  EXPECT_EQ(queue.pop_batch(batch, 1), 0u);
}

}  // namespace
}  // namespace canids::engine
