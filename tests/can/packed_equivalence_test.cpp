// Differential tests for the packed fast paths of the CAN layer. The bus
// simulator times frames with wire_bit_length() and picks winners with the
// integer-key arbitrate(); both must agree exactly with the bit-level
// references: serialize()'s stuffed BitString, and a wired-AND contest run
// bit by bit over a field built from the frame independently.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "can/arbitration.h"
#include "can/bitstream.h"
#include "can/crc15.h"
#include "util/rng.h"

namespace canids::can {
namespace {

/// Payload byte drawn so that long identical runs (0x00, 0xFF) are common.
std::uint8_t stuffing_heavy_byte(util::Rng& rng) {
  switch (rng.below(4)) {
    case 0: return 0x00;
    case 1: return 0xFF;
    default: return static_cast<std::uint8_t>(rng.below(256));
  }
}

/// Standard, extended and remote frames, DLC 0..8, with extreme
/// identifiers and stuffing-heavy payloads mixed in.
Frame random_frame(util::Rng& rng) {
  const bool extended = rng.uniform01() < 0.4;
  const std::uint64_t id_limit = extended ? kMaxExtId + 1ULL : kMaxStdId + 1ULL;
  std::uint32_t raw = 0;
  switch (rng.below(4)) {
    case 0: raw = 0; break;
    case 1: raw = static_cast<std::uint32_t>(id_limit - 1); break;
    default: raw = static_cast<std::uint32_t>(rng.below(id_limit)); break;
  }
  const CanId id = extended ? CanId::extended(raw) : CanId::standard(raw);
  const auto dlc = static_cast<std::uint8_t>(rng.below(kMaxDataBytes + 1));
  if (rng.uniform01() < 0.15) return Frame::remote_frame(id, dlc);
  std::vector<std::uint8_t> payload(dlc);
  const bool uniform = rng.uniform01() < 0.3;
  const std::uint8_t fill = (rng.uniform01() < 0.5) ? 0x00 : 0xFF;
  for (auto& b : payload) b = uniform ? fill : stuffing_heavy_byte(rng);
  return Frame::data_frame(id, payload);
}

int longest_dominant_scan(const BitString& bits) {
  int longest = 0;
  int run = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    run = bits[i] ? 0 : run + 1;
    longest = std::max(longest, run);
  }
  return longest;
}

TEST(PackedWireTimingTest, EqualsSerializedReferenceOnRandomFrames) {
  util::Rng rng(0xC0FFEE);
  constexpr int kFrames = 100'000;
  for (int trial = 0; trial < kFrames; ++trial) {
    const Frame frame = random_frame(rng);
    const SerializedFrame reference = serialize(frame);
    ASSERT_EQ(wire_bit_length(frame), reference.stuffed.size())
        << frame.to_string();

    // The packed encoder's table CRC equals the bit-serial register over
    // the unstuffed SOF..data bits.
    Crc15 crc;
    for (std::size_t i = 0; i < reference.layout.crc_begin; ++i) {
      crc.push_bit(reference.unstuffed[i]);
    }
    ASSERT_EQ(reference.crc, crc.value()) << frame.to_string();
  }
}

TEST(PackedWireTimingTest, CoversEveryFormatAndLength) {
  for (const bool extended : {false, true}) {
    for (const bool remote : {false, true}) {
      for (std::uint8_t dlc = 0; dlc <= kMaxDataBytes; ++dlc) {
        for (const std::uint8_t fill : {0x00, 0xFF, 0x55}) {
          for (const std::uint32_t raw : {0u, 0x7FFu}) {
            const CanId id = extended ? CanId::extended(raw << 18 | raw)
                                      : CanId::standard(raw);
            const std::vector<std::uint8_t> payload(dlc, fill);
            const Frame frame = remote ? Frame::remote_frame(id, dlc)
                                       : Frame::data_frame(id, payload);
            const SerializedFrame reference = serialize(frame);
            EXPECT_EQ(wire_bit_length(frame), reference.stuffed.size())
                << frame.to_string();
          }
        }
      }
    }
  }
}

// Every standard identifier, under each length, both frame types and fills
// of long runs, alternating bits and nibble runs.
TEST(PackedWireTimingTest, EqualsSerializedReferenceForEveryStandardId) {
  for (std::uint32_t raw = 0; raw <= kMaxStdId; ++raw) {
    const CanId id = CanId::standard(raw);
    for (std::uint8_t dlc = 0; dlc <= kMaxDataBytes; ++dlc) {
      const Frame remote = Frame::remote_frame(id, dlc);
      ASSERT_EQ(wire_bit_length(remote), serialize(remote).stuffed.size())
          << remote.to_string();
      for (const std::uint8_t fill : {0x00, 0xFF, 0x55, 0xAA, 0x0F}) {
        const std::vector<std::uint8_t> payload(dlc, fill);
        const Frame data = Frame::data_frame(id, payload);
        ASSERT_EQ(wire_bit_length(data), serialize(data).stuffed.size())
            << data.to_string();
      }
    }
  }
}

// The paper's §III.B.1 stuffing bound: no well-formed frame holds the bus
// dominant for more than 6 bits (48 us at 125 kbit/s), which is why the
// zero-flood needs a raw bus hold, not frames.
TEST(LongestDominantRunTest, StuffingBoundsWellFormedFrames) {
  util::Rng rng(41);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> payload(rng.below(9));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
    const Frame frame = Frame::data_frame(
        CanId::standard(static_cast<std::uint32_t>(rng.below(0x800))),
        payload);
    EXPECT_LE(longest_dominant_scan(serialize(frame).stuffed), 6)
        << frame.to_string();
  }
}

TEST(LongestDominantRunTest, AllZeroFrameStillBounded) {
  const std::vector<std::uint8_t> zeros(8, 0x00);
  const Frame frame = Frame::data_frame(CanId::standard(0x000), zeros);
  const int longest = longest_dominant_scan(serialize(frame).stuffed);
  EXPECT_LE(longest, 6);
  EXPECT_GE(longest, 5);
}

TEST(LongestDominantRunTest, RecessiveHeavyFrameHasShortRuns) {
  const std::vector<std::uint8_t> payload(8, 0xFF);
  const Frame frame = Frame::data_frame(CanId::standard(0x7FF), payload);
  EXPECT_LE(longest_dominant_scan(serialize(frame).stuffed), 5);
}

/// The arbitration field built field by field from the frame, the way
/// serialize() lays it out, independent of the packed key.
BitString reference_field(const Frame& frame) {
  BitString bits;
  const CanId id = frame.id();
  if (!id.is_extended()) {
    bits.append_bits(id.raw(), kStdIdBits);
    bits.push_back(frame.is_remote());  // RTR
    bits.push_back(false);              // IDE, dominant for standard frames
  } else {
    bits.append_bits(id.raw() >> 18, kStdIdBits);
    bits.push_back(true);  // SRR
    bits.push_back(true);  // IDE
    bits.append_bits(id.raw() & 0x3FFFFu, 18);
    bits.push_back(frame.is_remote());  // RTR
  }
  return bits;
}

/// The bit-by-bit wired-AND contest: the bus carries dominant when any
/// contender still in the race sends dominant, and a contender sending
/// recessive then drops out. A contender whose field is exhausted sends
/// dominant (a data frame's IDE/r0 bits).
ArbitrationResult wired_and_reference(std::span<const Frame> contenders) {
  std::vector<BitString> fields;
  std::size_t max_len = 0;
  for (const Frame& f : contenders) {
    fields.push_back(reference_field(f));
    max_len = std::max(max_len, fields.back().size());
  }
  ArbitrationResult result;
  result.lost_at_bit.assign(contenders.size(), std::nullopt);
  std::vector<std::size_t> alive(contenders.size());
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = i;

  for (std::size_t bit = 0; bit < max_len && alive.size() > 1; ++bit) {
    auto sent = [&](std::size_t idx) {
      return bit < fields[idx].size() ? fields[idx][bit] : false;
    };
    const bool bus_dominant =
        std::any_of(alive.begin(), alive.end(),
                    [&](std::size_t idx) { return !sent(idx); });
    if (!bus_dominant) continue;
    std::vector<std::size_t> still_alive;
    for (std::size_t idx : alive) {
      if (sent(idx)) {
        result.lost_at_bit[idx] = bit;
      } else {
        still_alive.push_back(idx);
      }
    }
    alive = std::move(still_alive);
  }
  result.winner = alive.front();
  result.tied_with_winner.assign(alive.begin() + 1, alive.end());
  return result;
}

TEST(KeyArbitrationTest, EqualsWiredAndReferenceOnRandomContenderSets) {
  util::Rng rng(0xA5B1);
  ArbitrationResult reused;
  for (int round = 0; round < 20'000; ++round) {
    // Draw from a small pool so duplicates (ties) and shared prefixes are
    // frequent; the pool mixes standard, extended and remote frames.
    std::vector<Frame> pool;
    const int pool_size = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < pool_size; ++i) pool.push_back(random_frame(rng));
    if (rng.uniform01() < 0.5) {
      // A standard frame and an extended frame sharing its 11 leading bits.
      const auto top = static_cast<std::uint32_t>(rng.below(kMaxStdId + 1ULL));
      pool.push_back(Frame::data_frame(CanId::standard(top), {}));
      pool.push_back(Frame::data_frame(
          CanId::extended(top << 18 |
                          static_cast<std::uint32_t>(rng.below(1u << 18))),
          {}));
    }
    std::vector<Frame> contenders;
    const int n = 1 + static_cast<int>(rng.below(10));
    for (int i = 0; i < n; ++i) {
      contenders.push_back(pool[rng.below(pool.size())]);
      ASSERT_EQ(arbitration_bits(contenders.back()),
                reference_field(contenders.back()));
    }

    const ArbitrationResult expected = wired_and_reference(contenders);
    const ArbitrationResult actual = arbitrate(contenders);
    ASSERT_EQ(actual.winner, expected.winner);
    ASSERT_EQ(actual.lost_at_bit, expected.lost_at_bit);
    ASSERT_EQ(actual.tied_with_winner, expected.tied_with_winner);

    // The storage-reusing overload gives the same result.
    arbitrate(contenders, reused);
    ASSERT_EQ(reused.winner, expected.winner);
    ASSERT_EQ(reused.lost_at_bit, expected.lost_at_bit);
    ASSERT_EQ(reused.tied_with_winner, expected.tied_with_winner);
  }
}

}  // namespace
}  // namespace canids::can
