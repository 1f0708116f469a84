#include "trace/trace_source.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "trace/candump.h"
#include "trace/synthetic_vehicle.h"
#include "trace/trace_io.h"
#include "trace/vspy_csv.h"

namespace canids::trace {
namespace {

/// A deterministic little capture used by the file-format tests.
[[nodiscard]] Trace sample_trace() {
  Trace trace;
  const std::uint8_t payload[] = {0x80, 0x80, 0x00, 0x59};
  trace.push_back(LogRecord{
      1'500'000, "can0",
      can::Frame::data_frame(can::CanId::standard(0x0D1), payload)});
  trace.push_back(LogRecord{
      3'250'000, "can0", can::Frame::remote_frame(can::CanId::standard(0x5E4), 2)});
  trace.push_back(LogRecord{
      7'000'000, "can1",
      can::Frame::data_frame(can::CanId::extended(0x18DB33F1),
                             std::span<const std::uint8_t>(payload, 2))});
  return trace;
}

struct TempFile {
  std::filesystem::path path;
  explicit TempFile(const std::string& name) {
    path = std::filesystem::temp_directory_path() / name;
  }
  ~TempFile() { std::filesystem::remove(path); }
};

TEST(TraceSourceTest, CandumpStreamingMatchesBatchReader) {
  std::ostringstream text;
  write_candump(text, sample_trace());

  std::istringstream batch_in(text.str());
  const Trace batch = read_candump(batch_in);

  std::istringstream stream_in(text.str());
  CandumpSource source(stream_in);
  Trace streamed;
  while (auto record = source.next_record()) streamed.push_back(*record);

  EXPECT_EQ(streamed, batch);
  EXPECT_EQ(streamed.size(), sample_trace().size());
  EXPECT_FALSE(source.next_record().has_value()) << "source must stay empty";
}

TEST(TraceSourceTest, VspyStreamingMatchesBatchReader) {
  std::ostringstream text;
  write_vspy_csv(text, sample_trace());

  std::istringstream batch_in(text.str());
  const Trace batch = read_vspy_csv(batch_in);

  std::istringstream stream_in(text.str());
  VspyCsvSource source(stream_in);
  Trace streamed;
  while (auto record = source.next_record()) streamed.push_back(*record);

  EXPECT_EQ(streamed, batch);
}

TEST(TraceSourceTest, NextYieldsTimedFramesInOrder) {
  std::ostringstream text;
  write_candump(text, sample_trace());
  std::istringstream in(text.str());
  CandumpSource source(in);

  const std::vector<can::TimedFrame> frames = source.drain();
  const Trace expected = sample_trace();
  ASSERT_EQ(frames.size(), expected.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].timestamp, expected[i].timestamp);
    EXPECT_EQ(frames[i].frame, expected[i].frame);
    EXPECT_EQ(frames[i].source_node, can::TimedFrame::kUnknownSource);
  }
}

TEST(TraceSourceTest, OpenTraceSourceAutoDetectsFormats) {
  TempFile candump_file("canids_source_test.log");
  TempFile vspy_file("canids_source_test.csv");
  {
    std::ofstream out(candump_file.path);
    write_candump(out, sample_trace());
  }
  {
    std::ofstream out(vspy_file.path);
    write_vspy_csv(out, sample_trace());
  }

  EXPECT_EQ(open_trace_source(candump_file.path)->drain_records(),
            sample_trace());
  EXPECT_EQ(open_trace_source(vspy_file.path)->drain_records(),
            sample_trace());
  EXPECT_THROW((void)open_trace_source("/nonexistent/file.log"),
               std::runtime_error);
}

TEST(TraceSourceTest, LoadTraceFileStillWorksThroughSources) {
  TempFile file("canids_source_load.log");
  {
    std::ofstream out(file.path);
    write_candump(out, sample_trace());
  }
  EXPECT_EQ(load_trace_file(file.path), sample_trace());
}

TEST(TraceSourceTest, StreamingParseErrorsCarryLineNumbers) {
  const std::string text =
      "(0.001000) can0 0D1#11\n"
      "\n"
      "# comment\n"
      "not-a-candump-line\n";
  std::istringstream in(text);
  CandumpSource source(in);
  ASSERT_TRUE(source.next_record().has_value());
  try {
    (void)source.next_record();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4u);
  }
}

TEST(TraceSourceTest, MemorySourceReplaysTrace) {
  const Trace trace = sample_trace();
  MemorySource source(trace);
  const std::vector<can::TimedFrame> frames = source.drain();
  ASSERT_EQ(frames.size(), trace.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].timestamp, trace[i].timestamp);
    EXPECT_EQ(frames[i].frame, trace[i].frame);
  }
  EXPECT_FALSE(source.next().has_value());
}

TEST(TraceSourceTest, SyntheticStreamingMatchesBatchRecording) {
  const SyntheticVehicle vehicle;
  const util::TimeNs duration = 3 * util::kSecond;
  const std::uint64_t seed = 4711;

  const Trace batch =
      vehicle.record_trace(DrivingBehavior::kCity, duration, seed);
  auto source = vehicle.stream_trace(DrivingBehavior::kCity, duration, seed);

  std::size_t i = 0;
  while (auto frame = source->next()) {
    ASSERT_LT(i, batch.size()) << "streaming produced extra frames";
    EXPECT_EQ(frame->timestamp, batch[i].timestamp) << "frame " << i;
    EXPECT_EQ(frame->frame, batch[i].frame) << "frame " << i;
    ++i;
  }
  EXPECT_EQ(i, batch.size()) << "streaming truncated the drive";
}

TEST(TraceSourceTest, FillReadsInChunksAndStopsAtEnd) {
  // The base-class fill (CandumpSource doesn't override it) must honour
  // `max`, append without clearing, and return 0 only at end of stream.
  std::ostringstream text;
  write_candump(text, sample_trace());
  std::istringstream in(text.str());
  CandumpSource source(in);

  std::vector<can::TimedFrame> frames;
  EXPECT_EQ(source.fill(frames, 2), 2u);
  EXPECT_EQ(frames.size(), 2u);
  EXPECT_EQ(source.fill(frames, 10), 1u);
  EXPECT_EQ(frames.size(), 3u);
  EXPECT_EQ(source.fill(frames, 10), 0u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].frame, sample_trace()[i].frame);
  }
}

TEST(TraceSourceTest, MemorySourceFillMatchesNext) {
  const SyntheticVehicle vehicle;
  auto all =
      vehicle.stream_trace(DrivingBehavior::kIdle, util::kSecond, 1)->drain();
  ASSERT_GT(all.size(), 10u);

  MemorySource source(all);
  std::vector<can::TimedFrame> frames;
  while (source.fill(frames, 7) > 0) {
  }
  ASSERT_EQ(frames.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(frames[i].timestamp, all[i].timestamp);
    EXPECT_EQ(frames[i].frame, all[i].frame);
  }
}

TEST(TraceSourceTest, MemorySourceFillIdsMatchesFill) {
  const SyntheticVehicle vehicle;
  auto all =
      vehicle.stream_trace(DrivingBehavior::kCity, util::kSecond, 2)->drain();
  ASSERT_GT(all.size(), 100u);
  all.push_back(can::TimedFrame{
      all.back().timestamp + 1,
      can::Frame::data_frame(can::CanId::extended(0x18DB33F1), {}),
      can::TimedFrame::kUnknownSource});

  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096}, all.size() + 1}) {
    MemorySource by_frames(all);
    std::vector<can::TimedFrame> frames;
    while (by_frames.fill(frames, chunk) > 0) {
    }
    MemorySource by_ids(all);
    std::vector<can::TimedId> ids;
    std::size_t calls = 0;
    while (const std::size_t got = by_ids.fill_ids(ids, chunk)) {
      EXPECT_LE(got, chunk);
      ++calls;
    }
    EXPECT_EQ(calls, (all.size() + chunk - 1) / chunk) << "chunk " << chunk;
    ASSERT_EQ(ids.size(), frames.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(ids[i].timestamp, frames[i].timestamp) << "chunk " << chunk;
      EXPECT_EQ(ids[i].id, frames[i].frame.id()) << "chunk " << chunk;
    }
  }
}

TEST(TraceSourceTest, FillKeepsFramesDecodedBeforeAParseError) {
  // Two good lines, a malformed one, two more good lines: the first fill
  // must surface both pre-error frames with the ParseError, and the
  // source must recover on the following calls.
  std::istringstream in(
      "(0.001) can0 0D1#80\n"
      "(0.002) can0 0D2#81\n"
      "this is not a frame\n"
      "(0.003) can0 0D3#82\n"
      "(0.004) can0 0D4#83\n");
  CandumpSource source(in);
  std::vector<can::TimedFrame> frames;
  EXPECT_THROW((void)source.fill(frames, 100), ParseError);
  EXPECT_EQ(frames.size(), 2u);
  EXPECT_EQ(source.fill(frames, 100), 2u);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames.back().frame.id().raw(), 0x0D4u);
  EXPECT_EQ(source.fill(frames, 100), 0u);
}

}  // namespace
}  // namespace canids::trace
