#include "ids/window.h"

#include <gtest/gtest.h>

#include <vector>

namespace canids::ids {
namespace {

using util::kMillisecond;
using util::kSecond;

WindowConfig by_time(util::TimeNs duration) {
  WindowConfig config;
  config.duration = duration;
  return config;
}

TEST(WindowAccumulatorTest, TimeWindowClosesAtBoundary) {
  WindowAccumulator acc(by_time(kSecond));
  const can::CanId id = can::CanId::standard(0x123);
  EXPECT_FALSE(acc.add(0, id).has_value());
  EXPECT_FALSE(acc.add(kSecond - 1, id).has_value());
  const auto snap = acc.add(kSecond, id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->frames, 2u);
  EXPECT_EQ(snap->start, 0);
  EXPECT_EQ(snap->end, kSecond);
  // The boundary frame opened the new window.
  EXPECT_EQ(acc.frames_in_current(), 1u);
}

TEST(WindowAccumulatorTest, WindowAlignedToFirstFrame) {
  WindowAccumulator acc(by_time(kSecond));
  const can::CanId id = can::CanId::standard(0x123);
  EXPECT_FALSE(acc.add(5 * kSecond, id).has_value());
  const auto snap = acc.add(6 * kSecond + 1, id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->start, 5 * kSecond);
  EXPECT_EQ(snap->end, 6 * kSecond);
}

TEST(WindowAccumulatorTest, SilentGapsSkippedNotEmitted) {
  WindowAccumulator acc(by_time(kSecond));
  const can::CanId id = can::CanId::standard(0x123);
  (void)acc.add(0, id);
  // 10 seconds of silence: exactly one snapshot (the old window), and the
  // new window starts at the 10s boundary containing the new frame.
  const auto snap = acc.add(10 * kSecond + 100, id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->frames, 1u);
  const auto next = acc.add(10 * kSecond + 200, id);
  EXPECT_FALSE(next.has_value());
}

TEST(WindowAccumulatorTest, SnapshotVectorsMatchCounters) {
  WindowAccumulator acc(by_time(kSecond));
  acc.add(1, can::CanId::standard(0x7FF));
  acc.add(2, can::CanId::standard(0x7FF));
  acc.add(3, can::CanId::standard(0x000));
  acc.add(4, can::CanId::standard(0x000));
  const auto snap = acc.flush();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->frames, 4u);
  for (int bit = 0; bit < 11; ++bit) {
    EXPECT_DOUBLE_EQ(snap->probabilities[static_cast<std::size_t>(bit)], 0.5);
    EXPECT_DOUBLE_EQ(snap->entropies[static_cast<std::size_t>(bit)], 1.0);
  }
  EXPECT_EQ(snap->width(), 11);
}

TEST(WindowAccumulatorTest, FlushEmitsPartialWindow) {
  WindowAccumulator acc(by_time(kSecond));
  acc.add(100, can::CanId::standard(0x123));
  acc.add(200, can::CanId::standard(0x124));
  const auto snap = acc.flush();
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->frames, 2u);
  EXPECT_FALSE(acc.flush().has_value());  // nothing left
}

TEST(WindowAccumulatorTest, FlushOnEmptyReturnsNothing) {
  WindowAccumulator acc(by_time(kSecond));
  EXPECT_FALSE(acc.flush().has_value());
}

TEST(WindowAccumulatorTest, RejectsDegenerateConfig) {
  EXPECT_THROW(WindowAccumulator(by_time(0)), canids::ContractViolation);
}

TEST(WindowsOfTest, SplitsStreamAndFlushesTail) {
  std::vector<can::TimedFrame> frames;
  for (int i = 0; i < 25; ++i) {
    can::TimedFrame tf;
    tf.timestamp = static_cast<util::TimeNs>(i) * 100 * kMillisecond;
    tf.frame = can::Frame::data_frame(can::CanId::standard(0x100), {});
    frames.push_back(tf);
  }
  // 25 frames at 100 ms: windows [0,1s) [1,2s) hold 10 each; 5 in the tail.
  const auto windows = windows_of(frames, by_time(kSecond));
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].frames, 10u);
  EXPECT_EQ(windows[1].frames, 10u);
  EXPECT_EQ(windows[2].frames, 5u);
}

TEST(WindowsOfTest, EmptyInput) {
  EXPECT_TRUE(windows_of({}, by_time(kSecond)).empty());
}

TEST(WindowAccumulatorTest, PairTrackingOnByDefault) {
  WindowAccumulator acc(by_time(kSecond));
  acc.add(1, can::CanId::standard(0x7FF));
  acc.add(2, can::CanId::standard(0x7FF));
  const auto snap = acc.flush();
  ASSERT_TRUE(snap.has_value());
  ASSERT_TRUE(snap->has_pairs());
  ASSERT_EQ(snap->pair_probabilities.size(),
            static_cast<std::size_t>(pair_count(11)));
  for (double q : snap->pair_probabilities) EXPECT_DOUBLE_EQ(q, 1.0);
}

TEST(WindowAccumulatorTest, PairTrackingCanBeDisabled) {
  WindowConfig config = by_time(kSecond);
  config.track_pairs = false;
  WindowAccumulator acc(config);
  acc.add(1, can::CanId::standard(0x7FF));
  acc.add(2, can::CanId::standard(0x7FF));
  const auto snap = acc.flush();
  ASSERT_TRUE(snap.has_value());
  EXPECT_FALSE(snap->has_pairs());
}

}  // namespace
}  // namespace canids::ids
