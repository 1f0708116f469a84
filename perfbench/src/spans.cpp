#include "spans.h"

#include <algorithm>
#include <fstream>

#include "common.h"

namespace perfbench {

/// One thread's spans. Only its owning thread appends; readers run after
/// the traced threads have been joined.
struct SpanRecorder::ThreadLog {
  std::vector<Span> spans;
};

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

std::uint32_t SpanRecorder::name(const std::string& text) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find(names_.begin(), names_.end(), text);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.push_back(text);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanRecorder::ThreadLog& SpanRecorder::local() {
  // A thread's log is registered once and owned by the recorder, so spans
  // outlive the (short-lived) engine and pump threads that made them.
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    auto owned = std::make_unique<ThreadLog>();
    owned->spans.reserve(1 << 14);
    log = owned.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::move(owned));
  }
  return *log;
}

void SpanRecorder::record(const Span& span) { local().spans.push_back(span); }

std::uint64_t SpanRecorder::record(std::uint32_t name, std::uint64_t parent,
                                   std::int64_t start_ns, std::int64_t end_ns,
                                   std::uint64_t count) {
  Span span;
  span.id = open();
  span.parent = parent;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.count = count;
  record(span);
  return span.id;
}

std::vector<Span> SpanRecorder::all() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& log : logs_) {
    out.insert(out.end(), log->spans.begin(), log->spans.end());
  }
  return out;
}

std::int64_t SpanRecorder::total_ns(std::uint32_t name) const {
  std::int64_t total = 0;
  for (const Span& span : all()) {
    if (span.name == name) total += span.end_ns - span.start_ns;
  }
  return total;
}

std::uint64_t SpanRecorder::span_count(std::uint32_t name) const {
  std::uint64_t n = 0;
  for (const Span& span : all()) n += span.name == name ? 1 : 0;
  return n;
}

std::uint64_t SpanRecorder::item_count(std::uint32_t name) const {
  std::uint64_t n = 0;
  for (const Span& span : all()) n += span.name == name ? span.count : 0;
  return n;
}

std::int64_t SpanRecorder::last_end(std::uint32_t name,
                                    std::uint64_t parent) const {
  std::int64_t last = 0;
  for (const Span& span : all()) {
    if (span.name == name && span.parent == parent) {
      last = std::max(last, span.end_ns);
    }
  }
  return last;
}

void SpanRecorder::write_csv(const std::filesystem::path& path) const {
  std::vector<Span> spans = all();
  std::vector<std::string> names;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    names = names_;
  }
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  out << "id,parent,name,start_ns,end_ns,count\n";
  for (const Span& span : spans) {
    out << span.id << ',' << span.parent << ',' << names[span.name] << ','
        << span.start_ns << ',' << span.end_ns << ',' << span.count << '\n';
  }
  check(static_cast<bool>(out), "cannot write spans to " + path.string());
}

SpanSource::SpanSource(std::unique_ptr<canids::trace::TraceSource> inner,
                       std::uint64_t parent)
    : inner_(std::move(inner)),
      parent_(parent),
      name_(SpanRecorder::instance().name("trace.fill")) {}

std::optional<canids::can::TimedFrame> SpanSource::next() {
  return inner_->next();
}

std::size_t SpanSource::fill(std::vector<canids::can::TimedFrame>& out,
                             std::size_t max) {
  const std::int64_t start = now_ns();
  const std::size_t n = inner_->fill(out, max);
  SpanRecorder::instance().record(name_, parent_, start, now_ns(), n);
  return n;
}

SpanBackend::SpanBackend(
    std::unique_ptr<canids::analysis::DetectorBackend> inner,
    std::shared_ptr<std::atomic<std::uint64_t>> parent)
    : inner_(std::move(inner)),
      parent_(std::move(parent)),
      name_(SpanRecorder::instance().name("analysis.on_frames")) {}

std::optional<canids::analysis::WindowVerdict> SpanBackend::on_frame(
    canids::util::TimeNs timestamp, const canids::can::CanId& id) {
  return inner_->on_frame(timestamp, id);
}

void SpanBackend::on_frames(const canids::can::TimedId* frames,
                            std::size_t count,
                            std::vector<canids::analysis::WindowVerdict>& out) {
  const std::int64_t start = now_ns();
  inner_->on_frames(frames, count, out);
  SpanRecorder::instance().record(name_, parent_->load(), start, now_ns(),
                                  count);
}

void SpanBackend::rebind_models(const canids::analysis::ModelRefs& models) {
  inner_->rebind_models(models);
}

std::optional<canids::analysis::WindowVerdict> SpanBackend::finish() {
  return inner_->finish();
}

const canids::ids::PipelineCounters& SpanBackend::counters() const {
  return inner_->counters();
}

canids::analysis::DetectorInfo SpanBackend::describe() const {
  return inner_->describe();
}

std::unique_ptr<canids::analysis::DetectorBackend>
SpanBackend::clone_for_stream(std::vector<std::uint32_t> id_pool) const {
  return std::make_unique<SpanBackend>(
      inner_->clone_for_stream(std::move(id_pool)), parent_);
}

}  // namespace perfbench
