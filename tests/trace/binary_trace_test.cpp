#include "trace/binary_trace.h"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace_io.h"

namespace canids::trace {
namespace {

/// Exercises every record shape: data frames, a remote frame, an extended
/// identifier, a short payload, and two channels.
[[nodiscard]] Trace sample_trace() {
  Trace trace;
  const std::uint8_t payload[] = {0x80, 0x80, 0x00, 0x59};
  trace.push_back(LogRecord{
      1'500'000, "can0",
      can::Frame::data_frame(can::CanId::standard(0x0D1), payload)});
  trace.push_back(LogRecord{
      3'250'000, "can0",
      can::Frame::remote_frame(can::CanId::standard(0x5E4), 2)});
  trace.push_back(LogRecord{
      7'000'000, "can1",
      can::Frame::data_frame(can::CanId::extended(0x18DB33F1),
                             std::span<const std::uint8_t>(payload, 2))});
  trace.push_back(LogRecord{
      9'125'000, "can0",
      can::Frame::data_frame(can::CanId::standard(0x7FF), {})});
  return trace;
}

[[nodiscard]] std::string encode(const Trace& trace) {
  std::ostringstream out;
  write_binary_trace(out, trace);
  return out.str();
}

/// Byte offset of the first record for sample_trace(): fixed header
/// (8 magic + 4 version + 8 count + 1 channel count) plus two
/// length-prefixed channel names ("can0", "can1" -> 4+4 bytes each).
constexpr std::size_t kSampleHeaderBytes = 8 + 4 + 8 + 1 + (4 + 4) + (4 + 4);

TEST(BinaryTraceTest, RoundTripsEveryRecordShape) {
  const Trace original = sample_trace();
  std::istringstream in(encode(original));
  const Trace reread = read_binary_trace(in);
  ASSERT_EQ(reread.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reread[i].timestamp, original[i].timestamp) << "record " << i;
    EXPECT_EQ(reread[i].channel, original[i].channel) << "record " << i;
    EXPECT_EQ(reread[i].frame, original[i].frame) << "record " << i;
  }
}

TEST(BinaryTraceTest, RoundTripsEmptyTrace) {
  std::istringstream in(encode({}));
  EXPECT_TRUE(read_binary_trace(in).empty());
}

TEST(BinaryTraceTest, RecordSizeMatchesLayout) {
  const std::string bytes = encode(sample_trace());
  EXPECT_EQ(bytes.size(),
            kSampleHeaderBytes + sample_trace().size() * kBinaryRecordBytes);
}

TEST(BinaryTraceTest, IsBinaryTraceDetectsAndRewinds) {
  std::istringstream binary(encode(sample_trace()));
  EXPECT_TRUE(is_binary_trace(binary));
  EXPECT_EQ(read_binary_trace(binary).size(), sample_trace().size());

  std::istringstream text("(1.0) can0 123#AA\n");
  EXPECT_FALSE(is_binary_trace(text));
  std::istringstream tiny("ca");
  EXPECT_FALSE(is_binary_trace(tiny));
}

TEST(BinaryTraceTest, EveryTruncationIsRejected) {
  const std::string bytes = encode(sample_trace());
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    std::istringstream in(bytes.substr(0, length));
    // Header truncation throws at construction; record truncation when
    // the missing record is read. Either way the loss must be loud.
    EXPECT_THROW(
        {
          BinaryTraceSource source(in);
          (void)source.drain();
        },
        std::runtime_error)
        << "prefix of " << length << " bytes parsed cleanly";
  }
}

TEST(BinaryTraceTest, TrailingBytesAreRejected) {
  std::istringstream in(encode(sample_trace()) + "X");
  BinaryTraceSource source(in);
  EXPECT_THROW((void)source.drain(), std::runtime_error);
}

TEST(BinaryTraceTest, TamperedBytesAreRejected) {
  const std::string clean = encode(sample_trace());
  const auto expect_corrupt = [&](std::size_t offset, unsigned char value,
                                  const std::string& needle) {
    std::string bytes = clean;
    bytes[offset] = static_cast<char>(value);
    std::istringstream in(bytes);
    try {
      BinaryTraceSource source(in);
      (void)source.drain();
      FAIL() << "tamper at byte " << offset << " parsed cleanly";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "offset " << offset << ": " << e.what();
    }
  };

  constexpr std::size_t kRecord0 = kSampleHeaderBytes;
  expect_corrupt(0, 'X', "bad magic");
  expect_corrupt(8, 0xFF, "format version");
  // Channel count zeroed while records remain (offset 8+4+8).
  expect_corrupt(20, 0x00, "no channel names");
  // id_word is record bytes 8..11 LE; byte 11 bit 7 is the reserved bit.
  expect_corrupt(kRecord0 + 11, 0x80, "reserved id bit");
  // byte 9 = id bits 8..15: 0x08 makes a standard id of 0x8D1 > 0x7FF.
  expect_corrupt(kRecord0 + 9, 0x08, "standard identifier out of range");
  expect_corrupt(kRecord0 + 12, 200, "channel index out of range");
  expect_corrupt(kRecord0 + 13, 9, "dlc out of range");
  // Record 0 carries 4 payload bytes; its 8th payload slot must be zero.
  expect_corrupt(kRecord0 + 14 + 7, 0x01, "nonzero payload padding");
}

// ---- the buffer-oriented record codec (shared with the serve wire) ---------

TEST(BinaryRecordCodecTest, RoundTripsEveryRecordShape) {
  for (const LogRecord& record : sample_trace()) {
    unsigned char bytes[kBinaryRecordBytes];
    encode_binary_record(record.timestamp, record.frame, 3, bytes);

    can::TimedFrame full;
    std::uint8_t channel_index = 0;
    ASSERT_EQ(decode_binary_record(bytes, full, channel_index),
              RecordFault::kNone);
    EXPECT_EQ(channel_index, 3);
    EXPECT_EQ(full.timestamp, record.timestamp);
    EXPECT_EQ(full.frame, record.frame);

    // The id-only wire decoder applies the same validation and agrees on
    // the fields it materialises.
    can::TimedId id;
    ASSERT_EQ(decode_binary_record_id(bytes, id), RecordFault::kNone);
    EXPECT_EQ(id.timestamp, record.timestamp);
    EXPECT_EQ(id.id, record.frame.id());
  }
}

TEST(BinaryRecordCodecTest, BothDecodersRejectTheSameTampering) {
  const std::uint8_t payload[] = {0x11, 0x22, 0x33, 0x44};
  unsigned char clean[kBinaryRecordBytes];
  encode_binary_record(5'000'000,
                       can::Frame::data_frame(can::CanId::standard(0x0D1),
                                              payload),
                       0, clean);

  const auto expect_fault = [&](std::size_t offset, unsigned char value,
                                RecordFault want) {
    unsigned char bytes[kBinaryRecordBytes];
    std::memcpy(bytes, clean, sizeof bytes);
    bytes[offset] = value;
    can::TimedFrame full;
    std::uint8_t channel_index = 0;
    EXPECT_EQ(decode_binary_record(bytes, full, channel_index), want)
        << "full decoder, offset " << offset;
    can::TimedId id;
    EXPECT_EQ(decode_binary_record_id(bytes, id), want)
        << "id decoder, offset " << offset;
  };

  // id_word is bytes 8..11 LE; byte 11 bit 7 is the reserved bit.
  expect_fault(11, 0x80, RecordFault::kReservedBit);
  // byte 9 = id bits 8..15: 0x08 makes a standard id of 0x8D1 > 0x7FF.
  expect_fault(9, 0x08, RecordFault::kStandardId);
  expect_fault(13, 9, RecordFault::kDlc);
  // Record carries 4 payload bytes; slots past dlc must stay zero.
  expect_fault(14 + 4, 0x01, RecordFault::kPadding);
  expect_fault(14 + 7, 0x01, RecordFault::kPadding);

  // Remote frames carry no payload at all: any nonzero byte is padding.
  unsigned char remote[kBinaryRecordBytes];
  encode_binary_record(
      5'000'000, can::Frame::remote_frame(can::CanId::standard(0x5E4), 4), 0,
      remote);
  remote[14] = 0x01;
  can::TimedId id;
  EXPECT_EQ(decode_binary_record_id(remote, id), RecordFault::kPadding);
}

TEST(BinaryRecordCodecTest, FaultMessagesMatchLoaderErrors) {
  EXPECT_STREQ(record_fault_message(RecordFault::kReservedBit),
               "reserved id bit set");
  EXPECT_STREQ(record_fault_message(RecordFault::kStandardId),
               "standard identifier out of range");
  EXPECT_STREQ(record_fault_message(RecordFault::kDlc), "dlc out of range");
  EXPECT_STREQ(record_fault_message(RecordFault::kPadding),
               "nonzero payload padding");
}

TEST(BinaryTraceTest, FillMatchesNextAtAnyChunkSize) {
  const std::string bytes = encode(sample_trace());

  std::istringstream one_by_one(bytes);
  BinaryTraceSource reference(one_by_one);
  std::vector<can::TimedFrame> expected;
  while (auto frame = reference.next()) expected.push_back(*frame);
  ASSERT_EQ(expected.size(), sample_trace().size());

  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
    std::istringstream in(bytes);
    BinaryTraceSource source(in);
    std::vector<can::TimedFrame> got;
    while (source.fill(got, chunk) > 0) {
    }
    ASSERT_EQ(got.size(), expected.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i].timestamp, expected[i].timestamp);
      EXPECT_EQ(got[i].frame, expected[i].frame);
    }
  }
}

/// What one block-wise read of a canidsBT byte string yields: the
/// (timestamp, id) pairs decoded, and the error text if it threw.
struct IdRead {
  std::vector<can::TimedId> ids;
  std::string error;
};

/// Read `bytes` to the end in `chunk`-record blocks, either through
/// fill_ids() or through fill() reduced to timestamp and ID. Frames
/// appended before a throw are kept, per the fill() contract.
[[nodiscard]] IdRead read_ids(const std::string& bytes, std::size_t chunk,
                              bool via_fill_ids) {
  IdRead read;
  std::istringstream in(bytes);
  try {
    BinaryTraceSource source(in);
    if (via_fill_ids) {
      while (source.fill_ids(read.ids, chunk) > 0) {
      }
    } else {
      std::vector<can::TimedFrame> frames;
      const auto keep = [&] {
        for (const can::TimedFrame& frame : frames) {
          read.ids.push_back(can::TimedId{frame.timestamp, frame.frame.id()});
        }
        frames.clear();
      };
      try {
        while (source.fill(frames, chunk) > 0) keep();
      } catch (const std::runtime_error&) {
        keep();
        throw;
      }
    }
  } catch (const std::runtime_error& e) {
    read.error = e.what();
  }
  return read;
}

/// fill_ids() must be fill() minus the payload: same ids, same error.
void expect_same_read(const std::string& bytes, std::size_t chunk,
                      const std::string& what) {
  const IdRead want = read_ids(bytes, chunk, false);
  const IdRead got = read_ids(bytes, chunk, true);
  EXPECT_EQ(got.error, want.error) << what << ", chunk " << chunk;
  ASSERT_EQ(got.ids.size(), want.ids.size()) << what << ", chunk " << chunk;
  for (std::size_t i = 0; i < want.ids.size(); ++i) {
    EXPECT_EQ(got.ids[i].timestamp, want.ids[i].timestamp)
        << what << ", chunk " << chunk << ", frame " << i;
    EXPECT_EQ(got.ids[i].id, want.ids[i].id)
        << what << ", chunk " << chunk << ", frame " << i;
  }
}

constexpr std::size_t kIdChunks[] = {1, 7, 128, 4096};

TEST(BinaryTraceTest, FillIdsMatchesFillAtAnyChunkSize) {
  // 2 channels, extended and remote frames, more records than the largest
  // chunk, so every chunk size spans several blocks and a ragged tail.
  Trace trace;
  for (int copy = 0; copy < 1100; ++copy) {
    for (LogRecord record : sample_trace()) {
      record.timestamp += static_cast<util::TimeNs>(copy) * 10'000'000;
      trace.push_back(std::move(record));
    }
  }
  const std::string bytes = encode(trace);
  for (const std::size_t chunk : kIdChunks) {
    const IdRead read = read_ids(bytes, chunk, true);
    EXPECT_TRUE(read.error.empty()) << read.error;
    ASSERT_EQ(read.ids.size(), trace.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(read.ids[i].timestamp, trace[i].timestamp) << "frame " << i;
      ASSERT_EQ(read.ids[i].id, trace[i].frame.id()) << "frame " << i;
    }
    expect_same_read(bytes, chunk, "clean trace");
  }
}

TEST(BinaryTraceTest, FillIdsRejectsCorruptionExactlyLikeFill) {
  const std::string clean = encode(sample_trace());
  constexpr std::size_t kRecord0 = kSampleHeaderBytes;
  constexpr std::size_t kRecord2 = kRecord0 + 2 * kBinaryRecordBytes;
  constexpr std::size_t kRecord3 = kRecord0 + 3 * kBinaryRecordBytes;
  // Every TamperedBytesAreRejected case, plus faults in later records so
  // the record index in the message and the frames kept before the fault
  // are compared too.
  const std::pair<std::size_t, unsigned char> tampers[] = {
      {0, 'X'},
      {8, 0xFF},
      {20, 0x00},
      {kRecord0 + 11, 0x80},
      {kRecord0 + 9, 0x08},
      {kRecord0 + 12, 200},
      {kRecord0 + 13, 9},
      {kRecord0 + 14 + 7, 0x01},
      {kRecord2 + 12, 2},  // channel index one past the 2-name table
      {kRecord3 + 11, 0x80},
      {kRecord3 + 9, 0x08},
  };
  for (const auto& [offset, value] : tampers) {
    std::string bytes = clean;
    bytes[offset] = static_cast<char>(value);
    for (const std::size_t chunk : kIdChunks) {
      ASSERT_FALSE(read_ids(bytes, chunk, true).error.empty())
          << "tamper at byte " << offset << " parsed cleanly";
      expect_same_read(bytes, chunk,
                       "tamper at byte " + std::to_string(offset));
    }
  }
  for (std::size_t length = 0; length < clean.size(); ++length) {
    for (const std::size_t chunk : kIdChunks) {
      expect_same_read(clean.substr(0, length), chunk,
                       "prefix of " + std::to_string(length) + " bytes");
    }
  }
  for (const std::size_t chunk : kIdChunks) {
    ASSERT_NE(read_ids(clean + "X", chunk, true).error.find("trailing bytes"),
              std::string::npos);
    expect_same_read(clean + "X", chunk, "trailing byte");
  }
}

TEST(TraceSourceTest, BaseFillIdsKeepsFramesDecodedBeforeAParseError) {
  /// A text-parser stand-in: frame, frame, malformed line, frame.
  class FlakySource final : public TraceSource {
   public:
    std::optional<can::TimedFrame> next() override {
      ++calls_;
      if (calls_ == 3) throw ParseError("bad line", calls_);
      if (calls_ > 4) return std::nullopt;
      return can::TimedFrame{
          static_cast<util::TimeNs>(calls_) * 1000,
          can::Frame::data_frame(can::CanId::extended(0x100 + calls_), {}),
          can::TimedFrame::kUnknownSource};
    }

   private:
    std::uint32_t calls_ = 0;
  };

  FlakySource source;
  std::vector<can::TimedId> ids;
  EXPECT_THROW((void)source.fill_ids(ids, 16), ParseError);
  ASSERT_EQ(ids.size(), 2u);  // the two frames before the bad line
  EXPECT_EQ(ids[0].timestamp, 1000);
  EXPECT_EQ(ids[0].id, can::CanId::extended(0x101));
  EXPECT_EQ(ids[1].timestamp, 2000);
  EXPECT_EQ(ids[1].id, can::CanId::extended(0x102));
  // The source recovers on the next call, and appends after what is there.
  EXPECT_EQ(source.fill_ids(ids, 16), 1u);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[2].id, can::CanId::extended(0x104));
  EXPECT_EQ(source.fill_ids(ids, 16), 0u);
}

TEST(BinaryTraceTest, ExposesHeaderMetadata) {
  std::istringstream in(encode(sample_trace()));
  BinaryTraceSource source(in);
  EXPECT_EQ(source.record_count(), sample_trace().size());
}

TEST(BinaryTraceTest, TooManyChannelsThrows) {
  Trace trace;
  for (int i = 0; i < 256; ++i) {
    trace.push_back(LogRecord{
        static_cast<util::TimeNs>(i), "ch" + std::to_string(i),
        can::Frame::data_frame(can::CanId::standard(0x100), {})});
  }
  std::ostringstream out;
  EXPECT_THROW(write_binary_trace(out, trace), std::invalid_argument);
}

}  // namespace
}  // namespace canids::trace
