// BinaryFramer contract tests: fixed-size framing must reassemble the
// record stream identically under arbitrary recv fragmentation, count
// tampered records as faults while resuming at the next 22-byte boundary,
// and treat a partial record at end-of-stream as one fault.
#include "serve/wire_framing.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "can/frame.h"
#include "trace/binary_trace.h"
#include "util/rng.h"

namespace canids::serve {
namespace {

/// A small stream exercising every record shape the codec supports.
[[nodiscard]] std::vector<can::TimedId> sample_items() {
  return {
      {1'500'000, can::CanId::standard(0x0D1)},
      {3'250'000, can::CanId::standard(0x5E4)},
      {7'000'000, can::CanId::extended(0x18DB33F1)},
      {9'125'000, can::CanId::standard(0x7FF)},
      {11'000'000, can::CanId::standard(0x001)},
  };
}

[[nodiscard]] std::string encode_items(const std::vector<can::TimedId>& items) {
  std::string bytes;
  unsigned char record[trace::kBinaryRecordBytes];
  const std::uint8_t payload[] = {0xAB, 0xCD};
  for (const can::TimedId& item : items) {
    trace::encode_binary_record(
        item.timestamp, can::Frame::data_frame(item.id, payload), 0, record);
    bytes.append(reinterpret_cast<const char*>(record), sizeof record);
  }
  return bytes;
}

void expect_items_equal(const std::vector<can::TimedId>& got,
                        const std::vector<can::TimedId>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, want[i].timestamp) << "item " << i;
    EXPECT_EQ(got[i].id, want[i].id) << "item " << i;
  }
}

TEST(BinaryFramerTest, SplitAtEveryByteBoundaryReassembles) {
  const std::vector<can::TimedId> expected = sample_items();
  const std::string bytes = encode_items(expected);

  // Two feeds split at every possible byte position.
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    BinaryFramer framer;
    std::vector<can::TimedId> got;
    framer.feed(bytes.data(), split, got);
    framer.feed(bytes.data() + split, bytes.size() - split, got);
    expect_items_equal(got, expected);
    framer.finish();  // nothing buffered: no truncation fault
    EXPECT_EQ(framer.faults(), 0u) << "split " << split;
  }

  // Fixed chunk sizes, including ones that keep a partial alive for
  // several consecutive feeds (chunk < 22).
  for (const std::size_t chunk : {1UL, 2UL, 3UL, 7UL, 21UL, 23UL, 64UL}) {
    BinaryFramer framer;
    std::vector<can::TimedId> got;
    for (std::size_t at = 0; at < bytes.size(); at += chunk) {
      framer.feed(bytes.data() + at, std::min(chunk, bytes.size() - at), got);
    }
    expect_items_equal(got, expected);
    EXPECT_EQ(framer.faults(), 0u) << "chunk " << chunk;
  }
}

TEST(BinaryFramerTest, RandomFragmentationFuzz) {
  const std::vector<can::TimedId> expected = sample_items();
  const std::string bytes = encode_items(expected);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    BinaryFramer framer;
    std::vector<can::TimedId> got;
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::size_t n = std::min(1 + rng.below(40), bytes.size() - at);
      framer.feed(bytes.data() + at, n, got);
      at += n;
    }
    expect_items_equal(got, expected);
    EXPECT_EQ(framer.faults(), 0u) << "seed " << seed;
  }
}

TEST(BinaryFramerTest, TamperedRecordCountsFaultAndStreamResumes) {
  const std::vector<can::TimedId> items = sample_items();

  // Each entry corrupts one byte of the middle record; framing must drop
  // exactly that record and decode the rest.
  struct Tamper {
    std::size_t record;        // which record to corrupt
    std::size_t offset;        // within the record
    unsigned char value;
    const char* what;
  };
  const Tamper table[] = {
      {2, 11, 0x80, "reserved id bit"},
      // Record 1 carries a standard id (record 2 is extended, where any
      // 29-bit value is legal).
      {1, 9, 0x08, "standard id out of range"},
      {2, 13, 9, "dlc out of range"},
      {2, 14 + 7, 0x01, "nonzero payload padding"},
  };
  for (const Tamper& tamper : table) {
    std::string bytes = encode_items(items);
    bytes[tamper.record * trace::kBinaryRecordBytes + tamper.offset] =
        static_cast<char>(tamper.value);

    // Feed byte-by-byte so the tampered record also crosses feeds.
    BinaryFramer framer;
    std::vector<can::TimedId> got;
    for (std::size_t at = 0; at < bytes.size(); ++at) {
      framer.feed(bytes.data() + at, 1, got);
    }
    EXPECT_EQ(framer.faults(), 1u) << tamper.what;
    std::vector<can::TimedId> expected = items;
    expected.erase(expected.begin() +
                   static_cast<std::ptrdiff_t>(tamper.record));
    expect_items_equal(got, expected);
  }
}

TEST(BinaryFramerTest, TrailingPartialAtDisconnectIsOneFault) {
  const std::vector<can::TimedId> items = sample_items();
  const std::string bytes = encode_items(items);
  for (std::size_t cut = 1; cut < trace::kBinaryRecordBytes; ++cut) {
    BinaryFramer framer;
    std::vector<can::TimedId> got;
    framer.feed(bytes.data(), bytes.size() - cut, got);
    framer.finish();
    EXPECT_EQ(framer.faults(), 1u) << "cut " << cut;
    framer.finish();  // the partial was dropped: no second fault
    EXPECT_EQ(framer.faults(), 1u) << "cut " << cut;
    expect_items_equal(
        got, std::vector<can::TimedId>(items.begin(), items.end() - 1));
  }

  // A clean record boundary at disconnect is not a fault.
  BinaryFramer framer;
  std::vector<can::TimedId> got;
  framer.feed(bytes.data(), bytes.size(), got);
  framer.finish();
  EXPECT_EQ(framer.faults(), 0u);
}

}  // namespace
}  // namespace canids::serve
