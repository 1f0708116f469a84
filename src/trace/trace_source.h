// Pull-based streaming access to CAN captures. A TraceSource yields one
// frame per next() call, so arbitrarily long logs (multi-hour candump
// captures, live taps, simulated drives) are consumed in constant memory —
// the ingestion model the fleet engine is built on. The legacy
// load-everything Trace API (trace_io.h) is a thin drain() over these
// sources.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "can/bus.h"
#include "trace/log_record.h"

namespace canids::trace {

/// A pull-based stream of timestamped frames. next() returns frames in
/// capture order and nullopt once the stream is exhausted; implementations
/// hold O(1) state (plus file buffers), never the whole capture.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// The next frame, or nullopt at end of stream. Parsing sources throw
  /// ParseError (annotated with the line number) on malformed input.
  virtual std::optional<can::TimedFrame> next() = 0;

  /// Bulk read: append up to `max` frames to `out`, returning how many
  /// were appended; 0 means end of stream. Parsing sources may throw
  /// ParseError mid-batch — frames appended before the malformed line are
  /// kept in `out` (diff against the pre-call size) and the source
  /// recovers on the following call. The base implementation loops next();
  /// block-layout sources (MemorySource, BinaryTraceSource) override it
  /// with real block copies.
  virtual std::size_t fill(std::vector<can::TimedFrame>& out,
                           std::size_t max);

  /// Bulk read of only what the detectors judge: append up to `max`
  /// (timestamp, id) pairs to `out` — the fleet engine's batch-replay
  /// path. Same return value and error contract as fill(): on a throw,
  /// the ids of the frames decoded before the fault are already in `out`.
  /// The base implementation reduces fill() through a reused scratch
  /// buffer; MemorySource and BinaryTraceSource reduce straight to TimedId.
  virtual std::size_t fill_ids(std::vector<can::TimedId>& out,
                               std::size_t max);

  /// Drain every remaining frame — the batch path, for callers that want
  /// the old fully-materialized behaviour.
  [[nodiscard]] std::vector<can::TimedFrame> drain();

 private:
  /// fill_ids() scratch, kept so a steady block loop allocates nothing.
  std::vector<can::TimedFrame> id_fill_frames_;
};

/// A TraceSource whose underlying records carry channel metadata (the file
/// parsers). next() is derived from next_record(), dropping the channel.
class RecordSource : public TraceSource {
 public:
  /// The next log record, or nullopt at end of stream.
  virtual std::optional<LogRecord> next_record() = 0;

  std::optional<can::TimedFrame> next() final;

  /// Drain every remaining record — equivalent to the legacy whole-file
  /// readers (read_candump / read_vspy_csv).
  [[nodiscard]] Trace drain_records();
};

/// Replays an in-memory frame list (tests, benchmarks, recorded traffic).
class MemorySource final : public TraceSource {
 public:
  explicit MemorySource(std::vector<can::TimedFrame> frames);
  /// Convenience: replays a loaded Trace (channels are dropped).
  explicit MemorySource(const Trace& trace);

  std::optional<can::TimedFrame> next() override;
  std::size_t fill(std::vector<can::TimedFrame>& out,
                   std::size_t max) override;
  /// Reduces straight from the stored frames, with no TimedFrame copy.
  std::size_t fill_ids(std::vector<can::TimedId>& out,
                       std::size_t max) override;

 private:
  std::vector<can::TimedFrame> frames_;
  std::size_t index_ = 0;
};

/// Streams frames off a live BusSimulator by advancing the simulation in
/// bounded chunks on demand: memory is one chunk's worth of frames, not the
/// whole run. The caller configures the bus (vehicle, attackers, faults)
/// before constructing the source; the bus must outlive it. Do not call
/// run_until elsewhere while streaming. (The registered bus listener owns
/// its buffer jointly with the source, so running the bus after the source
/// is gone is wasteful but safe.)
class BusStreamSource final : public TraceSource {
 public:
  BusStreamSource(can::BusSimulator& bus, util::TimeNs duration,
                  util::TimeNs chunk = kDefaultChunk);
  BusStreamSource(const BusStreamSource&) = delete;
  BusStreamSource& operator=(const BusStreamSource&) = delete;

  std::optional<can::TimedFrame> next() override;

  static constexpr util::TimeNs kDefaultChunk = 250 * util::kMillisecond;

 private:
  can::BusSimulator& bus_;
  /// Shared with the bus listener: BusSimulator has no listener removal,
  /// so joint ownership keeps the callback target alive for the bus's
  /// whole life.
  std::shared_ptr<std::deque<can::TimedFrame>> buffer_;
  util::TimeNs end_;
  util::TimeNs chunk_;
  util::TimeNs simulated_;
};

}  // namespace canids::trace
