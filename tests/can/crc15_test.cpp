#include "can/crc15.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "util/rng.h"

namespace canids::can {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

/// CRC over whole bytes the way the frame encoder feeds them.
std::uint16_t crc_of(const std::vector<std::uint8_t>& bytes) {
  Crc15 crc;
  for (const std::uint8_t byte : bytes) crc.push_byte(byte);
  return crc.value();
}

TEST(Crc15Test, CheckValueForStandardTestVector) {
  // CRC-15/CAN check value: crc("123456789") == 0x059E (reveng catalogue).
  EXPECT_EQ(crc_of(bytes_of("123456789")), 0x059E);
}

TEST(Crc15Test, EmptyInputIsZero) {
  EXPECT_EQ(crc_of({}), 0x0000);
}

TEST(Crc15Test, SingleZeroByteStaysZero) {
  // All-zero input never sets the register with init=0.
  const std::vector<std::uint8_t> zeros(4, 0x00);
  EXPECT_EQ(crc_of(zeros), 0x0000);
}

TEST(Crc15Test, ValueStaysWithin15Bits) {
  util::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(rng.below(16));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_LE(crc_of(data), kCrc15Mask);
  }
}

TEST(Crc15Test, BitwiseMatchesBytewise) {
  util::Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> data(1 + rng.below(12));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));

    Crc15 bitwise;
    for (std::uint8_t byte : data) {
      for (int i = 7; i >= 0; --i) bitwise.push_bit(((byte >> i) & 1) != 0);
    }
    EXPECT_EQ(bitwise.value(), crc_of(data));
  }
}

TEST(Crc15Test, PushBitsMsbFirstMatchesManual) {
  Crc15 a;
  a.push_bits(0b101, 3);
  Crc15 b;
  b.push_bit(true);
  b.push_bit(false);
  b.push_bit(true);
  EXPECT_EQ(a.value(), b.value());
}

TEST(Crc15Test, SensitiveToSingleBitFlip) {
  const auto base = bytes_of("hello-can-bus");
  const std::uint16_t reference = crc_of(base);
  for (std::size_t byte = 0; byte < base.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = base;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc_of(mutated), reference)
          << "flip at byte " << byte << " bit " << bit << " undetected";
    }
  }
}

TEST(Crc15Test, ResetRestoresInitialState) {
  Crc15 crc;
  crc.push_bits(0xABCD, 16);
  ASSERT_NE(crc.value(), 0);
  crc.reset();
  EXPECT_EQ(crc.value(), 0);
  crc.push_bits(0x1, 1);
  Crc15 fresh;
  fresh.push_bits(0x1, 1);
  EXPECT_EQ(crc.value(), fresh.value());
}

TEST(Crc15Test, LeadingZeroBitsChangeNothingWithZeroInit) {
  // With init=0, leading zero bits leave the register at zero — a known
  // property of this CRC configuration (and why SOF inclusion matters only
  // once payload bits arrive).
  Crc15 with_leading;
  with_leading.push_bits(0x0, 4);
  with_leading.push_bits(0x5A, 8);
  Crc15 without;
  without.push_bits(0x5A, 8);
  EXPECT_EQ(with_leading.value(), without.value());
}

}  // namespace
}  // namespace canids::can
