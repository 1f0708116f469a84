#include "can/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace canids::can {
namespace {

using util::kMillisecond;
using util::TimeNs;

MessageSpec spec_of(std::uint32_t id, TimeNs period, TimeNs offset = 0) {
  MessageSpec spec;
  spec.id = CanId::standard(id);
  spec.period = period;
  spec.offset = offset;
  spec.dlc = 8;
  spec.payload = PayloadKind::kCounter;
  spec.jitter_fraction = 0.0;
  return spec;
}

TEST(PeriodicSenderTest, ProducesOnSchedule) {
  PeriodicSender sender("ecu", {spec_of(0x100, 10 * kMillisecond)},
                        util::Rng(1));
  EXPECT_EQ(sender.next_production_time(), 0);
  sender.produce(25 * kMillisecond);
  // Due at 0, 10, 20 ms -> 3 frames.
  EXPECT_EQ(sender.stats().generated, 3u);
  EXPECT_TRUE(sender.has_pending());
  EXPECT_EQ(sender.next_production_time(), 30 * kMillisecond);
}

TEST(PeriodicSenderTest, OffsetDelaysFirstFrame) {
  PeriodicSender sender(
      "ecu", {spec_of(0x100, 10 * kMillisecond, 7 * kMillisecond)},
      util::Rng(1));
  EXPECT_EQ(sender.next_production_time(), 7 * kMillisecond);
  sender.produce(6 * kMillisecond);
  EXPECT_EQ(sender.stats().generated, 0u);
  sender.produce(7 * kMillisecond);
  EXPECT_EQ(sender.stats().generated, 1u);
}

TEST(PeriodicSenderTest, MultipleSpecsInterleave) {
  PeriodicSender sender("ecu",
                        {spec_of(0x100, 10 * kMillisecond),
                         spec_of(0x200, 25 * kMillisecond)},
                        util::Rng(1));
  sender.produce(50 * kMillisecond);
  // 0x100 at 0..50 step 10 -> 6; 0x200 at 0,25,50 -> 3.
  EXPECT_EQ(sender.stats().generated, 9u);
}

TEST(PeriodicSenderTest, QueueOverflowDropsNewest) {
  PeriodicSender sender("ecu", {spec_of(0x100, 1 * kMillisecond)},
                        util::Rng(1), /*queue_capacity=*/4);
  sender.produce(100 * kMillisecond);
  EXPECT_EQ(sender.stats().generated, 101u);
  EXPECT_GT(sender.stats().dropped_overflow, 0u);
  // Queue retains exactly its capacity.
  std::size_t queued = 0;
  while (sender.has_pending()) {
    sender.pop_head();
    ++queued;
  }
  EXPECT_EQ(queued, 4u);
}

TEST(PeriodicSenderTest, JitterKeepsPeriodPositiveAndVaries) {
  MessageSpec spec = spec_of(0x100, 10 * kMillisecond);
  spec.jitter_fraction = 0.05;
  PeriodicSender sender("ecu", {spec}, util::Rng(5));
  sender.produce(util::kSecond);
  // Roughly 100 frames, but jitter shifts the exact count.
  EXPECT_GT(sender.stats().generated, 90u);
  EXPECT_LT(sender.stats().generated, 110u);
}

TEST(PeriodicSenderTest, CounterPayloadIncrements) {
  PeriodicSender sender("ecu", {spec_of(0x100, 10 * kMillisecond)},
                        util::Rng(1), /*queue_capacity=*/16);
  sender.produce(30 * kMillisecond);
  std::vector<std::uint8_t> counters;
  while (sender.has_pending()) {
    counters.push_back(sender.head().payload()[0]);
    sender.pop_head();
  }
  ASSERT_EQ(counters.size(), 4u);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(counters[i], static_cast<std::uint8_t>(i));
  }
}

// The bus sleeps until next_production_time(), so it must stay the earliest
// due time of any message, however irregularly produce() is called.
TEST(PeriodicSenderTest, NextProductionTimeStaysTheEarliestDueTime) {
  const std::vector<MessageSpec> specs = {
      spec_of(0x100, 10 * kMillisecond, 3 * kMillisecond),
      spec_of(0x200, 25 * kMillisecond, 0),
      spec_of(0x300, 7 * kMillisecond, 12 * kMillisecond)};
  PeriodicSender sender("ecu", specs, util::Rng(1), /*queue_capacity=*/1024);

  // The schedule kept by hand: each message is due at its offset, then
  // every period after.
  std::vector<TimeNs> due;
  std::vector<TimeNs> period;
  for (const MessageSpec& spec : specs) {
    due.push_back(spec.offset);
    period.push_back(spec.period);
  }
  std::uint64_t generated = 0;
  auto step_to = [&](TimeNs now) {
    sender.produce(now);
    for (std::size_t i = 0; i < due.size(); ++i) {
      for (; due[i] <= now; due[i] += period[i]) ++generated;
    }
    EXPECT_EQ(sender.next_production_time(),
              *std::min_element(due.begin(), due.end()))
        << "after produce(" << now << ")";
    EXPECT_EQ(sender.stats().generated, generated)
        << "after produce(" << now << ")";
  };

  EXPECT_EQ(sender.next_production_time(), 0);
  for (const TimeNs now : {0, 0, 2, 3, 3, 11, 12, 40, 40, 41, 97}) {
    step_to(now * kMillisecond);
  }
}

TEST(PeriodicSenderTest, RejectsEmptySpecList) {
  EXPECT_THROW(PeriodicSender("ecu", {}, util::Rng(1)),
               canids::ContractViolation);
}

TEST(NodeTest, TransmitFilterBlocksAndCounts) {
  PeriodicSender sender("ecu", {spec_of(0x100, 10 * kMillisecond)},
                        util::Rng(1));
  sender.set_transmit_filter(
      [](const Frame& f) { return f.id().raw() != 0x100; });
  sender.produce(50 * kMillisecond);
  EXPECT_EQ(sender.stats().generated, 6u);
  EXPECT_EQ(sender.stats().blocked_by_filter, 6u);
  EXPECT_FALSE(sender.has_pending());
}

TEST(NodeTest, HeadAndPopRequireNonEmptyQueue) {
  PeriodicSender sender("ecu", {spec_of(0x100, 10 * kMillisecond)},
                        util::Rng(1));
  EXPECT_THROW((void)sender.head(), canids::ContractViolation);
  EXPECT_THROW(sender.pop_head(), canids::ContractViolation);
}

}  // namespace
}  // namespace canids::can
