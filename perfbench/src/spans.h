// The traced run's span recorder, plus decorators that place spans inside
// the engine without touching the library: a TraceSource wrapper times
// every fill() on the run_fleet pump threads, and a DetectorBackend
// wrapper (cloned per stream like the backend it wraps) times every
// on_frames() on the shard workers.
//
// Spans live in per-thread memory while the run lasts and are written out
// once at the end as CSV: id,parent,name,start_ns,end_ns,count. The span
// arithmetic (self time, coverage) is done by perfbench/benchlib/stats.py.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/detector_backend.h"
#include "trace/trace_source.h"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t name = 0;    ///< index into SpanRecorder::names
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 0;  ///< work items the span covered (frames, ...)
};

/// Process-wide, append-only, thread-safe span store.
class SpanRecorder {
 public:
  static SpanRecorder& instance();

  /// Intern a span name (call before the hot loop).
  std::uint32_t name(const std::string& text);
  /// Reserve an id for a span whose children start before it ends.
  std::uint64_t open() { return next_id_.fetch_add(1) + 1; }
  /// Store a finished span.
  void record(const Span& span);
  /// Convenience: allocate an id and store a finished span.
  std::uint64_t record(std::uint32_t name, std::uint64_t parent,
                       std::int64_t start_ns, std::int64_t end_ns,
                       std::uint64_t count);

  /// Sum of (end - start) over spans with this name.
  [[nodiscard]] std::int64_t total_ns(std::uint32_t name) const;
  /// Number of spans with this name.
  [[nodiscard]] std::uint64_t span_count(std::uint32_t name) const;
  /// Sum of the counts of spans with this name.
  [[nodiscard]] std::uint64_t item_count(std::uint32_t name) const;
  /// Latest end among spans with this name and parent.
  [[nodiscard]] std::int64_t last_end(std::uint32_t name,
                                      std::uint64_t parent) const;

  void write_csv(const std::filesystem::path& path) const;

 private:
  SpanRecorder() = default;
  struct ThreadLog;
  ThreadLog& local();
  [[nodiscard]] std::vector<Span> all() const;

  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// Times every fill() of the wrapped source as a child of `parent`.
class SpanSource final : public canids::trace::TraceSource {
 public:
  SpanSource(std::unique_ptr<canids::trace::TraceSource> inner,
             std::uint64_t parent);
  std::optional<canids::can::TimedFrame> next() override;
  std::size_t fill(std::vector<canids::can::TimedFrame>& out,
                   std::size_t max) override;

 private:
  std::unique_ptr<canids::trace::TraceSource> inner_;
  std::uint64_t parent_;
  std::uint32_t name_;
};

/// Times every on_frames() of the wrapped backend as a child of the span
/// id held in `parent` (read per call, so one prototype serves many runs).
class SpanBackend final : public canids::analysis::DetectorBackend {
 public:
  SpanBackend(std::unique_ptr<canids::analysis::DetectorBackend> inner,
              std::shared_ptr<std::atomic<std::uint64_t>> parent);

  std::optional<canids::analysis::WindowVerdict> on_frame(
      canids::util::TimeNs timestamp, const canids::can::CanId& id) override;
  void on_frames(const canids::can::TimedId* frames, std::size_t count,
                 std::vector<canids::analysis::WindowVerdict>& out) override;
  void rebind_models(const canids::analysis::ModelRefs& models) override;
  std::optional<canids::analysis::WindowVerdict> finish() override;
  [[nodiscard]] const canids::ids::PipelineCounters& counters()
      const override;
  [[nodiscard]] canids::analysis::DetectorInfo describe() const override;
  [[nodiscard]] std::unique_ptr<canids::analysis::DetectorBackend>
  clone_for_stream(std::vector<std::uint32_t> id_pool = {}) const override;

 private:
  std::unique_ptr<canids::analysis::DetectorBackend> inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> parent_;
  std::uint32_t name_;
};

}  // namespace perfbench
