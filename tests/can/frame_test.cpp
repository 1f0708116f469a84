#include "can/frame.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace canids::can {
namespace {

TEST(CanIdTest, DefaultIsDominantStandardZero) {
  const CanId id;
  EXPECT_EQ(id.raw(), 0u);
  EXPECT_FALSE(id.is_extended());
  EXPECT_EQ(id.width(), 11);
}

TEST(CanIdTest, StandardRangeEnforced) {
  EXPECT_NO_THROW((void)CanId::standard(0x7FF));
  EXPECT_THROW((void)CanId::standard(0x800), canids::ContractViolation);
}

TEST(CanIdTest, ExtendedRangeEnforced) {
  EXPECT_NO_THROW((void)CanId::extended(0x1FFFFFFF));
  EXPECT_THROW((void)CanId::extended(0x20000000), canids::ContractViolation);
}

TEST(CanIdTest, BitAccessorMsbFirst) {
  // 0x400 = 100 0000 0000b: only the MSB (bit 0) set.
  const CanId id = CanId::standard(0x400);
  EXPECT_TRUE(id.bit(0));
  for (int i = 1; i < 11; ++i) EXPECT_FALSE(id.bit(i));
  // 0x001: only the LSB (bit 10).
  const CanId low = CanId::standard(0x001);
  EXPECT_TRUE(low.bit(10));
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(low.bit(i));
}

TEST(CanIdTest, BitAccessorRejectsOutOfRange) {
  const CanId id = CanId::standard(0x123);
  EXPECT_THROW((void)id.bit(-1), canids::ContractViolation);
  EXPECT_THROW((void)id.bit(11), canids::ContractViolation);
}

TEST(CanIdTest, BitsReconstructRawValue) {
  util::Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const auto raw = static_cast<std::uint32_t>(rng.below(0x800));
    const CanId id = CanId::standard(raw);
    std::uint32_t rebuilt = 0;
    for (int i = 0; i < 11; ++i) {
      rebuilt = (rebuilt << 1) | (id.bit(i) ? 1u : 0u);
    }
    EXPECT_EQ(rebuilt, raw);
  }
}

TEST(CanIdTest, ExtendedBitAccessor29Wide) {
  const CanId id = CanId::extended(0x10000000);
  EXPECT_EQ(id.width(), 29);
  EXPECT_TRUE(id.bit(0));
  EXPECT_FALSE(id.bit(28));
}

TEST(CanIdTest, ToStringFormats) {
  EXPECT_EQ(CanId::standard(0x0D1).to_string(), "0D1");
  EXPECT_EQ(CanId::standard(0x7FF).to_string(), "7FF");
  EXPECT_EQ(CanId::extended(0x18DB33F1).to_string(), "18DB33F1");
}

TEST(CanIdTest, EqualityDistinguishesFormat) {
  EXPECT_EQ(CanId::standard(5), CanId::standard(5));
  EXPECT_NE(CanId::standard(5), CanId::extended(5));
}

TEST(FrameTest, DataFrameBasics) {
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  const Frame f = Frame::data_frame(CanId::standard(0x123), payload);
  EXPECT_EQ(f.dlc(), 4);
  EXPECT_FALSE(f.is_remote());
  ASSERT_EQ(f.payload().size(), 4u);
  EXPECT_EQ(f.payload()[0], 0xDE);
  EXPECT_EQ(f.payload()[3], 0xEF);
}

TEST(FrameTest, DataFrameRejectsOversizedPayload) {
  const std::vector<std::uint8_t> payload(9, 0);
  EXPECT_THROW((void)Frame::data_frame(CanId::standard(1), payload),
               canids::ContractViolation);
}

TEST(FrameTest, EmptyPayloadAllowed) {
  const Frame f = Frame::data_frame(CanId::standard(1), {});
  EXPECT_EQ(f.dlc(), 0);
  EXPECT_TRUE(f.payload().empty());
}

TEST(FrameTest, RemoteFrameHasNoPayload) {
  const Frame f = Frame::remote_frame(CanId::standard(0x5E4), 2);
  EXPECT_TRUE(f.is_remote());
  EXPECT_EQ(f.dlc(), 2);
  EXPECT_TRUE(f.payload().empty());
}

TEST(FrameTest, RemoteFrameRejectsOversizedDlc) {
  EXPECT_THROW((void)Frame::remote_frame(CanId::standard(1), 9),
               canids::ContractViolation);
}

TEST(FrameTest, ToStringCandumpStyle) {
  const std::vector<std::uint8_t> payload = {0x80, 0x59};
  EXPECT_EQ(Frame::data_frame(CanId::standard(0x0D1), payload).to_string(),
            "0D1#8059");
  EXPECT_EQ(Frame::remote_frame(CanId::standard(0x5E4), 2).to_string(),
            "5E4#R2");
}

TEST(FrameTest, EqualityComparesIdDataAndKind) {
  const std::vector<std::uint8_t> payload = {1, 2};
  const Frame a = Frame::data_frame(CanId::standard(7), payload);
  const Frame b = Frame::data_frame(CanId::standard(7), payload);
  EXPECT_EQ(a, b);
  const Frame c = Frame::data_frame(CanId::standard(8), payload);
  EXPECT_NE(a, c);
  const Frame d = Frame::remote_frame(CanId::standard(7), 2);
  EXPECT_NE(a, d);
}

}  // namespace
}  // namespace canids::can
