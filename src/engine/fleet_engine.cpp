#include "engine/fleet_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "util/contracts.h"

namespace canids::engine {

namespace {

/// Every-Nth-batch latency sampling for one judging thread. With sampling
/// off (the default) the per-batch cost is one false branch — no clock
/// reads, no atomics — so verdict byte-identity and throughput hold.
class BatchSampler {
 public:
  explicit BatchSampler(std::size_t every) : every_(every) {}
  [[nodiscard]] bool next() {
    if (every_ == 0 || ++tick_ < every_) return false;
    tick_ = 0;
    return true;
  }

 private:
  std::size_t every_;
  std::size_t tick_ = 0;
};

}  // namespace

/// All per-stream state lives here. A stream is judged by one thread: the
/// owning shard worker on the queued path (the producer touches only the
/// queue's push side, `closed` and `parse_errors`), or the run_fleet
/// producer that decodes it when run_fleet judges inline.
struct FleetEngine::StreamState {
  StreamState(std::string key_in, int shard_in, std::size_t queue_capacity,
              BackpressurePolicy on_full_in,
              std::unique_ptr<analysis::DetectorBackend> backend_in)
      : key(std::move(key_in)),
        shard(shard_in),
        queue(queue_capacity),
        on_full(on_full_in),
        backend(std::move(backend_in)) {}

  std::string key;
  int shard;
  SpscQueue<FrameItem> queue;
  BackpressurePolicy on_full;
  std::atomic<bool> closed{false};
  std::atomic<bool> drained{false};  ///< retire() set: final window flushed
  std::atomic<std::uint64_t> parse_errors{0};
  std::atomic<std::uint64_t> queue_dropped{0};
  /// Model generation this stream's backend was last rebound to; written
  /// by the opening thread before publication, then judging-thread-only.
  std::uint64_t generation = 0;
  std::unique_ptr<analysis::DetectorBackend> backend;
  std::vector<analysis::WindowVerdict> verdicts;
  /// Cross-thread copy of backend->counters(), republished by the judging
  /// thread after every batch (the backend itself is private to it).
  mutable std::mutex snapshot_mutex;
  ids::PipelineCounters snapshot;

  /// The per-batch step of both judging paths: pick up a pending model
  /// reload, score the block with one batched backend call (verdicts come
  /// back in close order, exactly as per-frame calls would produce them),
  /// fan the verdicts out, time the sampled batch, republish the counters.
  /// `scratch` is the caller's reusable verdict buffer.
  void judge(FleetEngine& engine, const FrameItem* items, std::size_t count,
             std::vector<analysis::WindowVerdict>& scratch, bool sampled) {
    rebind_if_stale(engine);
    scratch.clear();
    const std::int64_t t0 = sampled ? telemetry::steady_now_ns() : 0;
    backend->on_frames(items, count, scratch);
    if (sampled) {
      engine.hot_.scoring->observe(
          static_cast<std::uint64_t>(telemetry::steady_now_ns() - t0));
    }
    for (analysis::WindowVerdict& verdict : scratch) {
      fan_out(engine, std::move(verdict));
    }
    if (sampled && !scratch.empty()) {
      // Verdict latency = batch start to fan-out done, once per verdict
      // the batch closed (they all completed at the same instant).
      const auto elapsed =
          static_cast<std::uint64_t>(telemetry::steady_now_ns() - t0);
      for (std::size_t v = 0; v < scratch.size(); ++v) {
        engine.hot_.verdict_latency->observe(elapsed);
      }
    }
    publish_snapshot();
  }

  /// End of stream: flush the final (possibly partial) window — a
  /// mid-window disconnect still gets judged — then mark the stream
  /// drained and emit stream_drained.
  void retire(FleetEngine& engine) {
    rebind_if_stale(engine);
    if (auto verdict = backend->finish()) fan_out(engine, std::move(*verdict));
    publish_snapshot();
    drained.store(true, std::memory_order_release);
    if (engine.config_.events) {
      const ids::PipelineCounters& done = backend->counters();
      engine.config_.events->emit("stream_drained",
                                  {{"stream", key},
                                   {"frames", done.frames},
                                   {"alerts", done.alerts}});
    }
  }

  /// The producer side of the push path: enqueue a block with one queue
  /// publish under the stream's backpressure policy (Stream::push_batch).
  void push_batch(const FrameItem* items, std::size_t count) {
    if (on_full == BackpressurePolicy::kDropNewest) {
      // One attempt: the prefix that fits goes in; the rest is the queue
      // telling us the consumer is behind, so it is dropped and counted
      // rather than stalling the producer.
      const std::size_t pushed = queue.try_push_batch(items, count);
      if (pushed < count) {
        queue_dropped.fetch_add(count - pushed, std::memory_order_relaxed);
      }
      return;
    }
    while (count > 0) {
      const std::size_t pushed = queue.try_push_batch(items, count);
      items += pushed;
      count -= pushed;
      if (count > 0) std::this_thread::yield();
    }
  }

  void publish_snapshot() {
    const std::lock_guard<std::mutex> lock(snapshot_mutex);
    snapshot = backend->counters();
  }

  [[nodiscard]] StreamStatus status() const {
    StreamStatus row;
    row.key = key;
    row.shard = shard;
    {
      const std::lock_guard<std::mutex> lock(snapshot_mutex);
      row.counters = snapshot;
    }
    row.counters.parse_errors += parse_errors.load(std::memory_order_relaxed);
    row.counters.queue_dropped +=
        queue_dropped.load(std::memory_order_relaxed);
    row.queue_depth = queue.size_approx();
    row.closed = closed.load(std::memory_order_acquire);
    row.drained = drained.load(std::memory_order_acquire);
    return row;
  }

 private:
  /// A reload happened: rebind this stream's backend in place between
  /// batches (window state survives; reload_models already validated the
  /// refs against the prototype).
  void rebind_if_stale(FleetEngine& engine) {
    if (generation == engine.generation_.load(std::memory_order_acquire)) {
      return;
    }
    const std::lock_guard<std::mutex> lock(engine.reload_mutex_);
    backend->rebind_models(engine.reload_refs_);
    generation = engine.generation_.load(std::memory_order_acquire);
  }

  void fan_out(FleetEngine& engine, analysis::WindowVerdict verdict) {
    const bool alert = verdict.alert;
    if (engine.config_.collect_verdicts) verdicts.push_back(verdict);
    if (alert) engine.alerts_.publish(FleetAlert{key, std::move(verdict)});
  }
};

void FleetEngine::Stream::push(util::TimeNs timestamp, can::CanId id) {
  const FrameItem item{timestamp, id};
  if (state_->on_full == BackpressurePolicy::kDropNewest) {
    if (!state_->queue.try_push(item)) {
      state_->queue_dropped.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  while (!state_->queue.try_push(item)) {
    std::this_thread::yield();
  }
}

void FleetEngine::Stream::push_batch(const FrameItem* items,
                                     std::size_t count) {
  state_->push_batch(items, count);
}

void FleetEngine::Stream::record_parse_error() {
  state_->parse_errors.fetch_add(1, std::memory_order_relaxed);
}

void FleetEngine::Stream::close() {
  state_->closed.store(true, std::memory_order_release);
}

const std::string& FleetEngine::Stream::key() const noexcept {
  return state_->key;
}

std::uint64_t FleetEngine::Stream::queue_dropped() const noexcept {
  return state_->queue_dropped.load(std::memory_order_relaxed);
}

std::uint64_t FleetEngine::Stream::parse_errors() const noexcept {
  return state_->parse_errors.load(std::memory_order_relaxed);
}

StreamStatus FleetEngine::Stream::status() const { return state_->status(); }

FleetEngine::FleetEngine(std::unique_ptr<analysis::DetectorBackend> prototype,
                         FleetConfig config)
    : prototype_(std::move(prototype)), config_(config) {
  CANIDS_EXPECTS(prototype_ != nullptr);
  CANIDS_EXPECTS(config_.shards >= 0);
  // Loud, catchable validation (these come straight from CLI flags): the
  // SPSC ring indexes with a capacity mask, so reject anything that is not
  // a power of two instead of silently rounding or asserting.
  if (config_.queue_capacity == 0 ||
      (config_.queue_capacity & (config_.queue_capacity - 1)) != 0) {
    throw std::invalid_argument(
        "FleetConfig::queue_capacity must be a power of two, got " +
        std::to_string(config_.queue_capacity));
  }
  if (config_.drain_batch == 0) {
    throw std::invalid_argument("FleetConfig::drain_batch must be positive");
  }
  shard_count_ =
      config_.shards > 0
          ? config_.shards
          : static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()));
  shards_.reserve(static_cast<std::size_t>(shard_count_));
  for (int i = 0; i < shard_count_; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (config_.metrics && config_.telemetry_sample > 0) {
    telemetry::MetricsRegistry& reg = *config_.metrics;
    hot_.scoring = &reg.histogram(
        "canids_scoring_batch_ns",
        "DetectorBackend::on_frames wall time per sampled drained batch.",
        telemetry::latency_bounds_ns());
    hot_.verdict_latency = &reg.histogram(
        "canids_verdict_latency_ns",
        "Drain-start to alert-fan-out latency of window verdicts in "
        "sampled batches.",
        telemetry::latency_bounds_ns());
    hot_.occupancy = &reg.histogram(
        "canids_queue_occupancy_frames",
        "Stream queue occupancy (drained batch + frames still queued) at "
        "sampled drains.",
        telemetry::pow2_bounds(21));
  }
}

FleetEngine::FleetEngine(const model::StoredModels& models,
                         std::string_view detector,
                         analysis::DetectorOptions options,
                         FleetConfig config)
    : FleetEngine(
          [&]() -> std::unique_ptr<analysis::DetectorBackend> {
            if (models.golden) options.golden = models.golden;
            if (models.muter) options.muter_model = models.muter;
            if (models.interval) options.interval_model = models.interval;
            return analysis::make_detector(detector, options);
          }(),
          config) {}

FleetEngine::~FleetEngine() {
  if (started_.load(std::memory_order_acquire) && !finished_) {
    abort_.store(true, std::memory_order_release);
    for (std::unique_ptr<Shard>& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }
}

int FleetEngine::shard_of(std::string_view key) const noexcept {
  return static_cast<int>(std::hash<std::string_view>{}(key) %
                          static_cast<std::size_t>(shard_count_));
}

FleetEngine::Stream FleetEngine::open_stream(
    std::string key, std::vector<std::uint32_t> id_pool) {
  return Stream(
      &open_state(std::move(key), std::move(id_pool), config_.queue_capacity));
}

FleetEngine::StreamState& FleetEngine::open_state(
    std::string key, std::vector<std::uint32_t> id_pool,
    std::size_t queue_capacity) {
  CANIDS_EXPECTS(!finished_);
  CANIDS_EXPECTS(!key.empty());
  const int shard_index = shard_of(key);
  std::unique_ptr<StreamState> state_owner;
  {
    // Clone under the reload lock so the stream's backend and its recorded
    // generation are consistent (a concurrent reload_models either fully
    // precedes or fully follows this clone).
    const std::lock_guard<std::mutex> lock(reload_mutex_);
    state_owner = std::make_unique<StreamState>(
        std::move(key), shard_index, queue_capacity, config_.on_full,
        prototype_->clone_for_stream(std::move(id_pool)));
    state_owner->generation = generation_.load(std::memory_order_acquire);
  }
  StreamState* state = state_owner.get();
  {
    const std::lock_guard<std::mutex> lock(streams_mutex_);
    streams_.push_back(std::move(state_owner));
  }
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  if (!started_.load(std::memory_order_acquire)) {
    shard.streams.push_back(state);
  } else {
    const std::lock_guard<std::mutex> lock(shard.incoming_mutex);
    shard.incoming.push_back(state);
    shard.has_incoming.store(true, std::memory_order_release);
  }
  if (config_.events) {
    config_.events->emit("stream_open", {{"stream", state->key},
                                         {"shard", shard_index},
                                         {"generation", state->generation}});
  }
  return *state;
}

void FleetEngine::start() {
  CANIDS_EXPECTS(!started_.load(std::memory_order_acquire));
  started_.store(true, std::memory_order_release);
  for (std::unique_ptr<Shard>& shard : shards_) {
    Shard* raw = shard.get();
    raw->worker = std::thread([this, raw] { worker_loop(*raw); });
  }
}

void FleetEngine::reload_models(analysis::ModelRefs models) {
  {
    const std::lock_guard<std::mutex> lock(reload_mutex_);
    // The prototype is the validator: an incompatible model throws here and
    // neither the prototype nor any stream has changed.
    prototype_->rebind_models(models);
    reload_refs_ = std::move(models);
    // Publish AFTER the refs are in place: a worker that observes the new
    // generation takes reload_mutex_ before reading reload_refs_.
    generation_.fetch_add(1, std::memory_order_release);
  }
  if (config_.events) {
    config_.events->emit("model_reload",
                         {{"generation", model_generation()}});
  }
}

std::vector<StreamStatus> FleetEngine::status() const {
  const std::lock_guard<std::mutex> lock(streams_mutex_);
  std::vector<StreamStatus> rows;
  rows.reserve(streams_.size());
  for (const std::unique_ptr<StreamState>& state : streams_) {
    rows.push_back(state->status());
  }
  return rows;
}

void FleetEngine::publish_metrics() {
  if (!config_.metrics) return;
  telemetry::MetricsRegistry& reg = *config_.metrics;
  ids::PipelineCounters totals;
  std::size_t depth = 0;
  std::uint64_t opened = 0;
  std::uint64_t drained = 0;
  for (const StreamStatus& row : status()) {
    totals += row.counters;
    depth += row.queue_depth;
    ++opened;
    if (row.drained) ++drained;
  }
  // fold (CAS max), not set: counters must stay monotonic even though the
  // per-stream snapshots they are recomputed from can transiently lag the
  // workers by one drain batch between scrapes.
  reg.counter("canids_frames_total",
              "Frames accepted into detector backends.")
      .fold(totals.frames);
  reg.counter("canids_windows_closed_total", "Detection windows closed.")
      .fold(totals.windows_closed);
  reg.counter("canids_windows_evaluated_total",
              "Closed windows that were judged (not calibration).")
      .fold(totals.windows_evaluated);
  reg.counter("canids_alerts_total", "Alerting window verdicts.")
      .fold(totals.alerts);
  reg.counter("canids_parse_errors_total",
              "Malformed capture/ingest lines skipped.")
      .fold(totals.parse_errors);
  reg.counter("canids_dropped_frames_total",
              "Frames outside the detector's scope (non-legal IDs).")
      .fold(totals.dropped_frames);
  reg.counter("canids_queue_dropped_total",
              "Frames discarded by drop-newest backpressure.")
      .fold(totals.queue_dropped);
  reg.counter("canids_streams_opened_total", "Streams ever opened.")
      .fold(opened);
  reg.counter("canids_streams_drained_total",
              "Streams fully drained and retired.")
      .fold(drained);
  reg.gauge("canids_streams_active",
            "Streams open and not yet drained.")
      .set(static_cast<std::int64_t>(opened - drained));
  reg.gauge("canids_queue_depth_frames",
            "Frames currently buffered across all stream queues.")
      .set(static_cast<std::int64_t>(depth));
  reg.gauge("canids_model_generation",
            "Completed hot-reload generations (0 = initial models).")
      .set(static_cast<std::int64_t>(model_generation()));
  reg.gauge("canids_shards", "Worker shards.").set(shard_count_);
}

void FleetEngine::worker_loop(Shard& shard) {
  std::vector<FrameItem> batch;
  batch.reserve(config_.drain_batch);
  std::vector<analysis::WindowVerdict> verdicts;
  BatchSampler sampler(hot_.scoring != nullptr ? config_.telemetry_sample
                                               : 0);

  // The worker's private rotation: drained streams leave it (their
  // StreamState stays behind for finish()/status()), dynamically opened
  // ones join it via the shard's incoming hand-off.
  std::vector<StreamState*> active = shard.streams;
  int idle = 0;
  while (!abort_.load(std::memory_order_acquire)) {
    if (shard.has_incoming.load(std::memory_order_acquire)) {
      const std::lock_guard<std::mutex> lock(shard.incoming_mutex);
      active.insert(active.end(), shard.incoming.begin(),
                    shard.incoming.end());
      shard.incoming.clear();
      shard.has_incoming.store(false, std::memory_order_release);
    }
    bool progressed = false;
    for (std::size_t i = 0; i < active.size();) {
      StreamState* stream = active[i];
      // Read `closed` before popping: the producer sets it after its final
      // push, so when it was already set, an empty pop means end of stream.
      const bool closed = stream->closed.load(std::memory_order_acquire);
      batch.clear();
      if (stream->queue.pop_batch(batch, config_.drain_batch) > 0) {
        const bool sampled = sampler.next();
        if (sampled) {
          hot_.occupancy->observe(batch.size() + stream->queue.size_approx());
        }
        stream->judge(*this, batch.data(), batch.size(), verdicts, sampled);
        progressed = true;
        ++i;
        continue;
      }
      if (!closed) {
        ++i;
        continue;
      }
      stream->retire(*this);
      active[i] = active.back();
      active.pop_back();
      progressed = true;
    }
    if (progressed) {
      idle = 0;
      continue;
    }
    if (active.empty() && stopping_.load(std::memory_order_acquire) &&
        !shard.has_incoming.load(std::memory_order_acquire)) {
      return;
    }
    // Adaptive idle: spin-yield briefly (latency), then sleep (a resident
    // daemon's workers must not busy-burn a core per shard while the bus
    // is quiet).
    if (++idle < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

std::vector<StreamResult> FleetEngine::finish() {
  CANIDS_EXPECTS(started_.load(std::memory_order_acquire));
  CANIDS_EXPECTS(!finished_);
  stopping_.store(true, std::memory_order_release);
  for (std::unique_ptr<Shard>& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  finished_ = true;

  std::vector<StreamResult> results;
  results.reserve(streams_.size());
  totals_ = ids::PipelineCounters{};
  for (std::unique_ptr<StreamState>& state : streams_) {
    StreamResult result;
    result.key = state->key;
    result.shard = state->shard;
    result.counters = state->backend->counters();
    result.counters.parse_errors +=
        state->parse_errors.load(std::memory_order_relaxed);
    result.counters.queue_dropped +=
        state->queue_dropped.load(std::memory_order_relaxed);
    result.verdicts = std::move(state->verdicts);
    totals_ += result.counters;
    results.push_back(std::move(result));
  }
  return results;
}

FleetRunResult run_fleet(FleetEngine& engine,
                         std::vector<NamedSource> sources,
                         int producer_threads) {
  CANIDS_EXPECTS(!engine.started_.load(std::memory_order_acquire));
  CANIDS_EXPECTS(engine.streams_.empty());
  const std::size_t want =
      producer_threads > 0 ? static_cast<std::size_t>(producer_threads)
                           : static_cast<std::size_t>(engine.shard_count_);
  // Judging a block on the thread that decoded it saves the queue hop and
  // a second busy thread per core, but runs decode and judging back to
  // back. With fewer sources than threads, cores would idle; they are
  // better spent overlapping the two, so those runs queue (see the header).
  const bool queued = sources.size() < want;
  std::vector<FleetEngine::StreamState*> states;
  states.reserve(sources.size());
  for (NamedSource& named : sources) {
    // A stream judged inline never queues, so it gets the smallest ring.
    states.push_back(&engine.open_state(
        named.key, std::move(named.id_pool),
        queued ? engine.config_.queue_capacity : 1));
  }
  if (queued) {
    engine.start();
  } else {
    // Running, but with no shard worker: each stream is judged by the
    // producer below that decodes it, and finish() only collects results.
    engine.started_.store(true, std::memory_order_release);
  }

  FleetRunResult result;
  std::mutex error_mutex;
  std::atomic<std::size_t> next{0};
  // Judged inline, the fill is timed on the same sampled blocks as the
  // scoring.
  telemetry::Histogram* fill_hist = nullptr;
  if (engine.hot_.scoring != nullptr) {
    fill_hist = &engine.config_.metrics->histogram(
        "canids_ingest_fill_ns",
        "TraceSource::fill wall time per sampled ingest batch.",
        telemetry::latency_bounds_ns());
  }
  const std::size_t block_size = engine.config_.drain_batch;
  auto produce = [&] {
    std::vector<FleetEngine::FrameItem> block;
    block.reserve(block_size);
    std::vector<analysis::WindowVerdict> verdicts;
    BatchSampler sampler(fill_hist != nullptr
                             ? engine.config_.telemetry_sample
                             : 0);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sources.size()) break;
      FleetEngine::StreamState& stream = *states[i];
      trace::TraceSource& source = *sources[i].source;
      for (;;) {
        block.clear();
        bool parse_error = false;
        bool fatal = false;
        const bool sampled = sampler.next();
        const std::int64_t t0 = sampled ? telemetry::steady_now_ns() : 0;
        try {
          source.fill_ids(block, block_size);
          if (sampled) {
            fill_hist->observe(
                static_cast<std::uint64_t>(telemetry::steady_now_ns() - t0));
          }
        } catch (const trace::ParseError&) {
          // A malformed line: the parser consumed it, frames decoded
          // before it are already in `block`, and the source recovers on
          // the next call. Count it and keep going.
          parse_error = true;
          stream.parse_errors.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception& e) {
          // Anything else (I/O failure, binary-trace corruption) is fatal
          // for this stream; frames judged so far are kept.
          fatal = true;
          const std::lock_guard<std::mutex> lock(error_mutex);
          result.errors.emplace_back(stream.key, e.what());
        }
        if (!block.empty()) {
          if (queued) {
            stream.push_batch(block.data(), block.size());
          } else {
            stream.judge(engine, block.data(), block.size(), verdicts,
                         sampled);
          }
        }
        if (fatal) break;
        // An empty block without a parse error is end of stream (a parse
        // error can legitimately yield zero frames and must not end it).
        if (block.empty() && !parse_error) break;
      }
      stream.closed.store(true, std::memory_order_release);
      if (!queued) stream.retire(engine);
    }
  };

  const std::size_t threads =
      std::max<std::size_t>(1, std::min(want, sources.size()));
  std::vector<std::thread> producers;
  producers.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) producers.emplace_back(produce);
  produce();
  for (std::thread& thread : producers) thread.join();

  result.streams = engine.finish();
  return result;
}

}  // namespace canids::engine
