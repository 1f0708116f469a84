// CRC-15/CAN as specified by ISO 11898-1: polynomial
// x^15 + x^14 + x^10 + x^8 + x^7 + x^4 + x^3 + 1 (0x4599), init 0,
// no reflection, no final XOR. The CRC is computed over the unstuffed bit
// sequence from SOF through the last data bit.
#pragma once

#include <array>
#include <cstdint>

namespace canids::can {

inline constexpr std::uint16_t kCrc15Polynomial = 0x4599;
inline constexpr std::uint16_t kCrc15Mask = 0x7FFF;

/// Incremental CRC-15 register (bit-at-a-time, as the hardware shifts).
class Crc15 {
 public:
  /// Shift in a single bit (MSB-first order on the wire).
  constexpr void push_bit(bool bit) noexcept {
    const bool crc_msb = (reg_ & 0x4000) != 0;
    reg_ = static_cast<std::uint16_t>((reg_ << 1) & kCrc15Mask);
    if (bit != crc_msb) reg_ ^= kCrc15Polynomial;
  }

  /// Shift in the bits of `value`, MSB-first, `count` bits wide.
  constexpr void push_bits(std::uint32_t value, int count) noexcept {
    for (int i = count - 1; i >= 0; --i) {
      push_bit(((value >> i) & 1u) != 0);
    }
  }

  /// Shift in one byte MSB-first: the same register as eight push_bit()
  /// calls, eight bits per table step.
  constexpr void push_byte(std::uint8_t byte) noexcept;

  [[nodiscard]] constexpr std::uint16_t value() const noexcept { return reg_; }

  constexpr void reset() noexcept { reg_ = 0; }

 private:
  std::uint16_t reg_ = 0;
};

namespace detail {

/// Register after shifting byte `i` into a zero register: CRC-15 is linear,
/// so the top eight register bits and the input byte combine by XOR.
constexpr std::array<std::uint16_t, 256> make_crc15_byte_table() noexcept {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    Crc15 crc;
    crc.push_bits(i, 8);
    table[i] = crc.value();
  }
  return table;
}

inline constexpr std::array<std::uint16_t, 256> kCrc15ByteTable =
    make_crc15_byte_table();

}  // namespace detail

constexpr void Crc15::push_byte(std::uint8_t byte) noexcept {
  const auto index = static_cast<std::uint8_t>((reg_ >> 7) ^ byte);
  reg_ = static_cast<std::uint16_t>(((reg_ << 8) & kCrc15Mask) ^
                                    detail::kCrc15ByteTable[index]);
}

}  // namespace canids::can
