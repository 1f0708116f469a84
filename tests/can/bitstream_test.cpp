#include "can/bitstream.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "can/crc15.h"

#include "util/rng.h"

namespace canids::can {
namespace {

Frame random_frame(util::Rng& rng, bool allow_extended = true) {
  const bool extended = allow_extended && rng.uniform01() < 0.3;
  const CanId id =
      extended ? CanId::extended(static_cast<std::uint32_t>(
                     rng.below(kMaxExtId + 1ULL)))
               : CanId::standard(static_cast<std::uint32_t>(
                     rng.below(kMaxStdId + 1ULL)));
  if (rng.uniform01() < 0.1) {
    return Frame::remote_frame(id, static_cast<std::uint8_t>(rng.below(9)));
  }
  std::vector<std::uint8_t> payload(rng.below(9));
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
  return Frame::data_frame(id, payload);
}

TEST(BitStringTest, AppendBitsMsbFirst) {
  BitString bits;
  bits.append_bits(0b1011, 4);
  EXPECT_EQ(bits.to_string(), "1011");
}

TEST(BitStringTest, AppendRepeatedAndConcat) {
  BitString bits;
  bits.append_repeated(true, 3);
  BitString tail;
  tail.append_repeated(false, 2);
  bits.append(tail);
  EXPECT_EQ(bits.to_string(), "11100");
  EXPECT_EQ(bits.size(), 5u);
}

TEST(SerializeTest, StandardDataFrameLayout) {
  const std::vector<std::uint8_t> payload = {0xAA};
  const Frame frame = Frame::data_frame(CanId::standard(0x555), payload);
  const SerializedFrame s = serialize(frame);

  // Fig. 1 field arithmetic: 1 SOF + 11 ID + 1 RTR + 2 control + 4 DLC +
  // 8 data + 15 CRC + 1 CRC delim + 1 ACK + 1 ACK delim + 7 EOF = 52.
  EXPECT_EQ(s.layout.total_bits, 52u);
  EXPECT_EQ(s.unstuffed.size(), 52u);
  EXPECT_EQ(s.layout.arbitration_begin, 1u);
  EXPECT_EQ(s.layout.control_begin, 13u);
  EXPECT_EQ(s.layout.data_begin, 19u);
  EXPECT_EQ(s.layout.crc_begin, 27u);
  EXPECT_EQ(s.layout.eof_begin, 45u);

  // SOF dominant; EOF recessive.
  EXPECT_FALSE(s.unstuffed[0]);
  for (std::size_t i = s.layout.eof_begin; i < s.layout.total_bits; ++i) {
    EXPECT_TRUE(s.unstuffed[i]);
  }
}

TEST(SerializeTest, IdBitsAppearMsbFirstAfterSof) {
  const Frame frame = Frame::data_frame(CanId::standard(0x400), {});
  const SerializedFrame s = serialize(frame);
  EXPECT_TRUE(s.unstuffed[1]);  // MSB of 0x400 is 1
  for (std::size_t i = 2; i <= 11; ++i) EXPECT_FALSE(s.unstuffed[i]);
}

TEST(SerializeTest, ExtendedFrameLayoutLonger) {
  const std::vector<std::uint8_t> payload = {0x01, 0x02};
  const Frame ext =
      Frame::data_frame(CanId::extended(0x18DB33F1), payload);
  const SerializedFrame s = serialize(ext);
  // 1 SOF + 11 ID-A + 1 SRR + 1 IDE + 18 ID-B + 1 RTR + 2 control + 4 DLC +
  // 16 data + 15 CRC + 10 tail = 80.
  EXPECT_EQ(s.layout.total_bits, 80u);
}

TEST(SerializeTest, RemoteFrameCarriesNoData) {
  const Frame rtr = Frame::remote_frame(CanId::standard(0x123), 4);
  const SerializedFrame s = serialize(rtr);
  EXPECT_EQ(s.layout.crc_begin - s.layout.data_begin, 0u);
  // RTR bit (position 12: SOF + 11 ID bits) is recessive for remote frames.
  EXPECT_TRUE(s.unstuffed[12]);
}

TEST(SerializeTest, CrcMatchesManualComputation) {
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD};
  const Frame frame = Frame::data_frame(CanId::standard(0x0D1), payload);
  const SerializedFrame s = serialize(frame);
  Crc15 crc;
  for (std::size_t i = 0; i < s.layout.crc_begin; ++i) {
    crc.push_bit(s.unstuffed[i]);
  }
  EXPECT_EQ(crc.value(), s.crc);
}

TEST(StuffTest, InsertsComplementAfterFiveEqualBits) {
  BitString raw;
  raw.append_repeated(false, 5);  // 00000 -> 000001
  const BitString stuffed = stuff(raw, raw.size());
  EXPECT_EQ(stuffed.to_string(), "000001");
}

TEST(StuffTest, StuffBitStartsNewRun) {
  // Nine zeros: 00000|1|0000 — the run restarts after the stuff bit, so a
  // second stuff bit is NOT inserted after only 4 more zeros.
  BitString raw;
  raw.append_repeated(false, 9);
  const BitString stuffed = stuff(raw, raw.size());
  EXPECT_EQ(stuffed.to_string(), "0000010000");
}

TEST(StuffTest, TenEqualBitsGetTwoStuffBits) {
  BitString raw;
  raw.append_repeated(true, 10);  // 11111|0|11111|0
  const BitString stuffed = stuff(raw, raw.size());
  EXPECT_EQ(stuffed.to_string(), "111110111110");
}

TEST(StuffTest, TailBeyondRegionIsNeverStuffed) {
  BitString raw;
  raw.append_repeated(false, 10);
  const BitString stuffed = stuff(raw, /*stuffable_bits=*/3);
  // Only the first 3 bits are in the region; the 5-run never completes
  // inside it, so nothing is inserted.
  EXPECT_EQ(stuffed.size(), raw.size());
}

TEST(DestuffTest, RejectsSixEqualConsecutiveBits) {
  BitString bad;
  bad.append_repeated(false, 6);
  EXPECT_THROW((void)destuff(bad, 6), std::invalid_argument);
}

TEST(DestuffTest, RejectsTruncatedInput) {
  BitString raw;
  raw.append_repeated(false, 5);  // stuffed form would be 000001
  EXPECT_THROW((void)destuff(raw, 5), std::invalid_argument);
}

TEST(StuffDestuffProperty, RoundTripOnRandomFrames) {
  util::Rng rng(21);
  for (int trial = 0; trial < 300; ++trial) {
    const Frame frame = random_frame(rng);
    const SerializedFrame s = serialize(frame);
    const std::size_t region = s.layout.crc_begin + 15;
    const BitString recovered = destuff(s.stuffed, region);
    EXPECT_EQ(recovered, s.unstuffed) << frame.to_string();
  }
}

TEST(StuffProperty, NoSixRunInsideStuffRegion) {
  util::Rng rng(22);
  for (int trial = 0; trial < 300; ++trial) {
    const Frame frame = random_frame(rng);
    const SerializedFrame s = serialize(frame);
    const std::size_t region_end_unstuffed = s.layout.crc_begin + 15;
    // Find the stuffed length of the region: unstuffed region + inserted.
    const std::size_t region_end_stuffed =
        region_end_unstuffed + static_cast<std::size_t>(s.stuff_bits_inserted);
    int run = 0;
    bool last = !s.stuffed[0];
    for (std::size_t i = 0; i < region_end_stuffed; ++i) {
      if (s.stuffed[i] == last) {
        ++run;
      } else {
        run = 1;
        last = s.stuffed[i];
      }
      EXPECT_LE(run, 5) << "six-run at bit " << i << " in "
                        << frame.to_string();
    }
  }
}

TEST(WireLengthTest, MatchesSerializedSize) {
  util::Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    const Frame frame = random_frame(rng);
    EXPECT_EQ(wire_bit_length(frame), serialize(frame).stuffed.size());
  }
}

TEST(WireLengthTest, WorstCaseReachableByPathologicalFrame) {
  // ID 0x000 + all-zero payload maximises stuffing density.
  const std::vector<std::uint8_t> zeros(8, 0x00);
  const Frame frame = Frame::data_frame(CanId::standard(0), zeros);
  const std::size_t wire = wire_bit_length(frame);
  // 34+64 = 98 stuffable bits -> low-90s..121 total; must exceed the
  // unstuffed length meaningfully.
  EXPECT_GT(wire, serialize(frame).unstuffed.size() + 10);
}

TEST(TransmitDurationTest, ScalesWithBitrate) {
  const std::vector<std::uint8_t> payload(8, 0x55);
  const Frame frame = Frame::data_frame(CanId::standard(0x123), payload);
  const auto at_125k = transmit_duration(frame, 125'000);
  const auto at_500k = transmit_duration(frame, 500'000);
  EXPECT_EQ(at_125k, 4 * at_500k);
  // A 0x55 pattern avoids stuffing in the data; frame is ~111 bits, i.e.
  // ~888 us at 125 kbit/s. Sanity-check the magnitude.
  EXPECT_GT(at_125k, 700 * util::kMicrosecond);
  EXPECT_LT(at_125k, 1100 * util::kMicrosecond);
}

TEST(TransmitDurationTest, RejectsZeroBitrate) {
  const Frame frame = Frame::data_frame(CanId::standard(1), {});
  EXPECT_THROW((void)transmit_duration(frame, 0), canids::ContractViolation);
}

}  // namespace
}  // namespace canids::can
