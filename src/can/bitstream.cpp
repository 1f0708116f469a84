#include "can/bitstream.h"

#include <array>
#include <stdexcept>

#include "can/crc15.h"

namespace canids::can {

namespace {

constexpr bool kDominant = false;
constexpr bool kRecessive = true;

/// Fixed bits after the stuff region: CRC delimiter, ACK slot, ACK
/// delimiter and 7 EOF bits.
constexpr int kTailBits = 10;

/// A frame's stuff region (SOF..CRC, at most 118 bits) packed MSB-first:
/// region bit i is bit 63 - i % 64 of words[i / 64]. Bits past `size` are 0.
struct StuffRegion {
  std::uint64_t words[2] = {0, 0};
  int size = 0;
  int data_begin = 0;
  int crc_begin = 0;
  std::uint16_t crc = 0;

  /// Append the low `count` bits of `value` MSB-first; 1 <= count <= 32.
  void append(std::uint32_t value, int count) noexcept {
    const std::uint64_t v = value & ((std::uint64_t{1} << count) - 1);
    const int room = 64 - size % 64;
    std::uint64_t* word = &words[size / 64];
    if (count <= room) {
      *word |= v << (room - count);
    } else {
      word[0] |= v >> (count - room);
      word[1] |= v << (64 - (count - room));
    }
    size += count;
  }

  /// Append `count` dominant bits.
  void append_dominant(int count) noexcept { size += count; }

  [[nodiscard]] bool bit(int i) const noexcept {
    return ((words[i / 64] >> (63 - i % 64)) & 1u) != 0;
  }

  /// Whole byte `k` of the region, MSB-first; 0 <= k < 15.
  [[nodiscard]] std::uint8_t byte(int k) const noexcept {
    return static_cast<std::uint8_t>(words[k / 8] >> (56 - 8 * (k % 8)));
  }
};

/// stuff()'s rule as a state machine. A state is 5 * run_bit + run: `run`
/// (0..4) identical bits of value `run_bit` end the bits seen so far. The
/// bit that completes a run of five is followed by a complementary stuff
/// bit, which starts a run of its own.
struct StuffStep {
  int state = 0;
  int stuff_bits = 0;
};

constexpr int kStuffStates = 10;
/// stuff() starts with no run (a recessive run of length 0).
constexpr int kStuffStart = 5;

constexpr StuffStep stuff_step(int state, bool bit) noexcept {
  const bool run_bit = state >= 5;
  const int run = state % 5;
  const int next_run = (run > 0 && bit == run_bit) ? run + 1 : 1;
  if (next_run == 5) return {5 * static_cast<int>(!bit) + 1, 1};
  return {5 * static_cast<int>(bit) + next_run, 0};
}

/// kStuffTable[state * 256 + byte]: the low nibble is the state after the
/// byte's eight bits (MSB first), the high nibble the stuff bits they add.
constexpr std::array<std::uint8_t, kStuffStates * 256> kStuffTable = [] {
  std::array<std::uint8_t, kStuffStates * 256> table{};
  for (int state = 0; state < kStuffStates; ++state) {
    for (int byte = 0; byte < 256; ++byte) {
      StuffStep walk{state, 0};
      for (int b = 7; b >= 0; --b) {
        const StuffStep step = stuff_step(walk.state, ((byte >> b) & 1) != 0);
        walk = {step.state, walk.stuff_bits + step.stuff_bits};
      }
      table[static_cast<std::size_t>(state * 256 + byte)] =
          static_cast<std::uint8_t>(walk.stuff_bits << 4 | walk.state);
    }
  }
  return table;
}();

StuffRegion encode_stuff_region(const Frame& frame) noexcept {
  StuffRegion region;
  // --- Start of frame --------------------------------------------------------
  region.append_dominant(1);

  // --- Arbitration and control fields ----------------------------------------
  const CanId id = frame.id();
  const std::uint32_t rtr = frame.is_remote() ? 1u : 0u;
  if (!id.is_extended()) {
    region.append(id.raw(), kStdIdBits);
    region.append(rtr, 1);
    region.append_dominant(2);  // IDE (dominant = standard) + r0
  } else {
    region.append(id.raw() >> 18, kStdIdBits);  // ID[28..18]
    region.append(0b11, 2);  // SRR + IDE (recessive = extended)
    region.append(id.raw() & 0x3FFFFu, 18);     // ID[17..0]
    region.append(rtr, 1);
    region.append_dominant(2);  // r1 + r0
  }
  region.append(frame.dlc(), 4);

  // --- Data field ------------------------------------------------------------
  region.data_begin = region.size;
  for (std::uint8_t byte : frame.payload()) region.append(byte, 8);

  // --- CRC sequence over SOF..data: whole bytes by table, then the rest ------
  region.crc_begin = region.size;
  Crc15 crc;
  const int whole_bytes = region.size / 8;
  for (int k = 0; k < whole_bytes; ++k) {
    crc.push_byte(region.byte(k));
  }
  for (int i = 8 * whole_bytes; i < region.size; ++i) {
    crc.push_bit(region.bit(i));
  }
  region.crc = crc.value();
  region.append(region.crc, 15);
  return region;
}

}  // namespace

void BitString::append_bits(std::uint32_t value, int count) {
  CANIDS_EXPECTS(count >= 0 && count <= 32);
  for (int i = count - 1; i >= 0; --i) {
    bits_.push_back(((value >> i) & 1u) != 0);
  }
}

void BitString::append_repeated(bool bit, int count) {
  CANIDS_EXPECTS(count >= 0);
  bits_.insert(bits_.end(), static_cast<std::size_t>(count), bit);
}

void BitString::append(const BitString& other) {
  bits_.insert(bits_.end(), other.bits_.begin(), other.bits_.end());
}

std::string BitString::to_string() const {
  std::string out;
  out.reserve(bits_.size());
  for (bool b : bits_) out.push_back(b ? '1' : '0');
  return out;
}

SerializedFrame serialize(const Frame& frame) {
  const StuffRegion region = encode_stuff_region(frame);
  SerializedFrame out;
  BitString& bits = out.unstuffed;
  FrameLayout& layout = out.layout;
  for (int i = 0; i < region.size; ++i) bits.push_back(region.bit(i));

  layout.sof_begin = 0;
  layout.arbitration_begin = 1;
  // The control field is the two IDE/r bits plus the 4-bit DLC.
  layout.control_begin = static_cast<std::size_t>(region.data_begin - 6);
  layout.data_begin = static_cast<std::size_t>(region.data_begin);
  layout.crc_begin = static_cast<std::size_t>(region.crc_begin);
  out.crc = region.crc;

  const std::size_t stuffable = bits.size();  // SOF..CRC is the stuff region

  // --- Fixed-form tail -------------------------------------------------------
  layout.crc_delimiter = bits.size();
  bits.push_back(kRecessive);  // CRC delimiter
  layout.ack_slot = bits.size();
  bits.push_back(kDominant);  // ACK slot (assume acknowledged)
  layout.ack_delimiter = bits.size();
  bits.push_back(kRecessive);  // ACK delimiter
  layout.eof_begin = bits.size();
  bits.append_repeated(kRecessive, 7);  // EOF
  layout.total_bits = bits.size();

  out.stuffed = stuff(bits, stuffable);
  out.stuff_bits_inserted =
      static_cast<int>(out.stuffed.size() - bits.size());
  return out;
}

BitString stuff(const BitString& raw, std::size_t stuffable_bits) {
  CANIDS_EXPECTS(stuffable_bits <= raw.size());
  BitString out;
  int run = 0;
  bool run_bit = kRecessive;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const bool bit = raw[i];
    out.push_back(bit);
    if (i >= stuffable_bits) continue;  // tail is never stuffed
    if (run > 0 && bit == run_bit) {
      ++run;
    } else {
      run = 1;
      run_bit = bit;
    }
    if (run == 5) {
      const bool stuffed_bit = !run_bit;
      out.push_back(stuffed_bit);
      // The stuff bit starts a new run of length 1.
      run = 1;
      run_bit = stuffed_bit;
    }
  }
  return out;
}

BitString destuff(const BitString& stuffed,
                  std::size_t stuffable_bits_expected) {
  BitString out;
  int run = 0;
  bool run_bit = kRecessive;
  bool expect_stuff_bit = false;
  for (std::size_t i = 0; i < stuffed.size(); ++i) {
    const bool bit = stuffed[i];
    if (out.size() >= stuffable_bits_expected && !expect_stuff_bit) {
      // Past the stuff region: copy the fixed-form tail verbatim.
      out.push_back(bit);
      continue;
    }
    if (expect_stuff_bit) {
      if (bit == run_bit) {
        throw std::invalid_argument(
            "stuff error: six identical consecutive bits at position " +
            std::to_string(i));
      }
      expect_stuff_bit = false;
      run = 1;
      run_bit = bit;
      continue;  // stuff bit is dropped
    }
    out.push_back(bit);
    if (run > 0 && bit == run_bit) {
      ++run;
    } else {
      run = 1;
      run_bit = bit;
    }
    // A run of five triggers a stuff bit even when it completes exactly at
    // the region boundary, matching the transmitter's rule above.
    if (run == 5) expect_stuff_bit = true;
  }
  if (expect_stuff_bit) {
    throw std::invalid_argument("truncated input: missing final stuff bit");
  }
  return out;
}

std::size_t wire_bit_length(const Frame& frame) noexcept {
  const StuffRegion region = encode_stuff_region(frame);
  // Whole bytes by table, then the last bits one by one.
  int state = kStuffStart;
  int stuff_bits = 0;
  const int whole_bytes = region.size / 8;
  for (int k = 0; k < whole_bytes; ++k) {
    const std::uint8_t entry =
        kStuffTable[static_cast<std::size_t>(state * 256 + region.byte(k))];
    state = entry & 0x0F;
    stuff_bits += entry >> 4;
  }
  for (int i = 8 * whole_bytes; i < region.size; ++i) {
    const StuffStep step = stuff_step(state, region.bit(i));
    state = step.state;
    stuff_bits += step.stuff_bits;
  }
  return static_cast<std::size_t>(region.size + stuff_bits + kTailBits);
}

util::TimeNs bits_duration(std::int64_t bits, std::uint32_t bitrate_bps) {
  CANIDS_EXPECTS(bitrate_bps > 0);
  return bits * util::kSecond / static_cast<std::int64_t>(bitrate_bps);
}

util::TimeNs transmit_duration(const Frame& frame, std::uint32_t bitrate_bps) {
  return bits_duration(static_cast<std::int64_t>(wire_bit_length(frame)),
                       bitrate_bps);
}

}  // namespace canids::can
