#include "trace/trace_source.h"

#include <algorithm>

#include "util/contracts.h"

namespace canids::trace {

std::size_t TraceSource::fill(std::vector<can::TimedFrame>& out,
                              std::size_t max) {
  std::size_t added = 0;
  while (added < max) {
    auto frame = next();
    if (!frame) break;
    out.push_back(std::move(*frame));
    ++added;
  }
  return added;
}

std::size_t TraceSource::fill_ids(std::vector<can::TimedId>& out,
                                  std::size_t max) {
  id_fill_frames_.clear();
  const auto keep_ids = [&] {
    for (const can::TimedFrame& frame : id_fill_frames_) {
      out.push_back(can::TimedId{frame.timestamp, frame.frame.id()});
    }
  };
  try {
    fill(id_fill_frames_, max);
  } catch (...) {
    keep_ids();  // fill()'s contract: frames before the fault are kept
    throw;
  }
  keep_ids();
  return id_fill_frames_.size();
}

std::vector<can::TimedFrame> TraceSource::drain() {
  constexpr std::size_t kDrainChunk = 4096;
  std::vector<can::TimedFrame> frames;
  while (fill(frames, kDrainChunk) > 0) {
  }
  return frames;
}

std::optional<can::TimedFrame> RecordSource::next() {
  if (auto record = next_record()) {
    return can::TimedFrame{record->timestamp, record->frame,
                           can::TimedFrame::kUnknownSource};
  }
  return std::nullopt;
}

Trace RecordSource::drain_records() {
  Trace trace;
  while (auto record = next_record()) {
    trace.push_back(std::move(*record));
  }
  return trace;
}

MemorySource::MemorySource(std::vector<can::TimedFrame> frames)
    : frames_(std::move(frames)) {}

MemorySource::MemorySource(const Trace& trace) {
  frames_.reserve(trace.size());
  for (const LogRecord& record : trace) {
    frames_.push_back(can::TimedFrame{record.timestamp, record.frame,
                                      can::TimedFrame::kUnknownSource});
  }
}

std::optional<can::TimedFrame> MemorySource::next() {
  if (index_ >= frames_.size()) return std::nullopt;
  return frames_[index_++];
}

std::size_t MemorySource::fill(std::vector<can::TimedFrame>& out,
                               std::size_t max) {
  const std::size_t take = std::min(max, frames_.size() - index_);
  const auto first =
      frames_.begin() + static_cast<std::ptrdiff_t>(index_);
  out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(take));
  index_ += take;
  return take;
}

std::size_t MemorySource::fill_ids(std::vector<can::TimedId>& out,
                                   std::size_t max) {
  const std::size_t take = std::min(max, frames_.size() - index_);
  for (std::size_t i = index_; i < index_ + take; ++i) {
    out.push_back(can::TimedId{frames_[i].timestamp, frames_[i].frame.id()});
  }
  index_ += take;
  return take;
}

BusStreamSource::BusStreamSource(can::BusSimulator& bus, util::TimeNs duration,
                                 util::TimeNs chunk)
    : bus_(bus),
      buffer_(std::make_shared<std::deque<can::TimedFrame>>()),
      end_(bus.now() + duration),
      chunk_(chunk),
      simulated_(bus.now()) {
  CANIDS_EXPECTS(duration > 0);
  CANIDS_EXPECTS(chunk > 0);
  bus_.add_listener([buffer = buffer_](const can::TimedFrame& frame) {
    buffer->push_back(frame);
  });
}

std::optional<can::TimedFrame> BusStreamSource::next() {
  while (buffer_->empty() && simulated_ < end_) {
    // A frame that ends past the last chunk leaves the bus clock ahead of
    // it; the next chunk starts from that clock, never behind it.
    simulated_ = std::min<util::TimeNs>(
        std::max(simulated_, bus_.now()) + chunk_, end_);
    if (simulated_ > bus_.now()) bus_.run_until(simulated_);
  }
  if (buffer_->empty()) return std::nullopt;
  can::TimedFrame frame = buffer_->front();
  buffer_->pop_front();
  return frame;
}

}  // namespace canids::trace
