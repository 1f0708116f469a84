#include "attacks/transmitter_filter.h"

#include <gtest/gtest.h>

namespace canids::attacks {
namespace {

can::Frame frame_of(std::uint32_t id) {
  return can::Frame::data_frame(can::CanId::standard(id), {});
}

TEST(TransmitterFilterTest, AllowsOnlyAssignedIds) {
  const TransmitterFilter filter({0x100, 0x200});
  EXPECT_TRUE(filter.allows(frame_of(0x100)));
  EXPECT_TRUE(filter.allows(frame_of(0x200)));
  EXPECT_FALSE(filter.allows(frame_of(0x150)));
  EXPECT_FALSE(filter.allows(frame_of(0x000)));
}

TEST(TransmitterFilterTest, AcceptsUnsortedDuplicatedInput) {
  const TransmitterFilter filter({0x300, 0x100, 0x300, 0x200});
  for (const std::uint32_t id : {0x100u, 0x200u, 0x300u}) {
    EXPECT_TRUE(filter.allows(frame_of(id))) << id;
  }
  for (const std::uint32_t id : {0x0FFu, 0x150u, 0x2FFu, 0x301u}) {
    EXPECT_FALSE(filter.allows(frame_of(id))) << id;
  }
}

TEST(TransmitterFilterTest, RejectsExtendedFrames) {
  const TransmitterFilter filter({0x100});
  const can::Frame ext =
      can::Frame::data_frame(can::CanId::extended(0x100), {});
  EXPECT_FALSE(filter.allows(ext));
}

TEST(TransmitterFilterTest, PredicateOutlivesFilter) {
  std::function<bool(const can::Frame&)> predicate;
  {
    const TransmitterFilter filter({0x123});
    predicate = filter.as_predicate();
  }
  EXPECT_TRUE(predicate(frame_of(0x123)));
  EXPECT_FALSE(predicate(frame_of(0x124)));
}

TEST(TransmitterFilterTest, EmptyFilterBlocksEverything) {
  const TransmitterFilter filter({});
  EXPECT_FALSE(filter.allows(frame_of(0x000)));
  EXPECT_FALSE(filter.allows(frame_of(0x7FF)));
}

}  // namespace
}  // namespace canids::attacks
