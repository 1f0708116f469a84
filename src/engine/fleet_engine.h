// The sharded multi-vehicle fleet engine, generic over detector backends.
// The engine is built from a prototype analysis::DetectorBackend; every
// vehicle/channel stream gets its own instance stamped out with
// clone_for_stream(), so immutable trained state (golden template, learned
// entropy band, learned periods) is shared while runtime state stays
// per-stream. Frames reach a stream's backend by one of two paths:
//
//   queued (serve, taps; run_fleet with fewer sources than threads)
//   ─────────────────────────────────────────────────────────────────
//   Stream::push ──► SpscQueue ──► shard worker: per-stream DetectorBackend ──► AlertSink
//
//   inline (run_fleet with at least as many sources as threads)
//   ───────────────────────────────────────────────────────────
//   producer thread: TraceSource::fill_ids ──► same stream's DetectorBackend ──► AlertSink
//
// Either way exactly one thread judges a stream at a time, in frame order,
// so every WindowVerdict is identical to a sequential run. A stream's shard
// label is always shard_of(key): on the queued path it names the worker
// that owns the stream; judged inline, where no worker runs, it is only the
// stable label STATUS and the fleet table print.
//
// The paper's bit-entropy detector stays the cheapest replicable backend
// (11 counters + one shared template per stream) and remains the default,
// but any detector — symbol-entropy, interval, ensemble — now
// routes through the same engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/detector_backend.h"
#include "analysis/registry.h"
#include "engine/alert_sink.h"
#include "engine/spsc_queue.h"
#include "ids/pipeline.h"
#include "model/store.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "trace/trace_source.h"

namespace canids::engine {

/// What Stream::push does when the stream's bounded queue is full.
enum class BackpressurePolicy : std::uint8_t {
  /// Spin-yield until space frees — lossless, the producer slows down
  /// (the batch/file-replay contract; memory stays bounded).
  kBlock,
  /// Discard the frames that do not fit, counting each in the stream's
  /// `queue_dropped` — the live-ingest contract, where a socket producer
  /// must never stall the whole accept loop behind one slow stream.
  kDropNewest,
};

struct FleetConfig {
  /// Worker shards; 0 = one per available hardware thread.
  int shards = 0;
  /// Bounded frames buffered per stream between its producer and shard on
  /// the queued path (backpressure: push blocks when full, so memory
  /// stays bounded); streams run_fleet judges inline have no queue. Must
  /// be a power of two —
  /// the SPSC ring is mask-indexed — or the engine constructor throws
  /// std::invalid_argument.
  std::size_t queue_capacity = 8192;
  /// Full-queue policy applied to every stream (see BackpressurePolicy).
  BackpressurePolicy on_full = BackpressurePolicy::kBlock;
  /// Max frames a worker drains from one stream before rotating to its
  /// next stream (fairness bound under load); also the block run_fleet
  /// decodes at a time.
  std::size_t drain_batch = 256;
  /// Retain every WindowVerdict per stream (memory grows with window count;
  /// meant for the determinism tests and small fleets, not production).
  bool collect_verdicts = false;
  /// Telemetry sink. When set, publish_metrics() folds the same per-stream
  /// snapshots STATUS reads into this registry at scrape time — counters
  /// and gauges cost the hot path nothing. Null = no metrics anywhere.
  std::shared_ptr<telemetry::MetricsRegistry> metrics;
  /// Structured lifecycle event sink (stream open/drain, model reloads).
  /// Only cold paths emit; null = no events.
  std::shared_ptr<telemetry::EventLog> events;
  /// Hot-path latency sampling: time every Nth judged batch (scoring,
  /// verdict latency; queue occupancy on the queued path; the fill in
  /// run_fleet) into `metrics` histograms. 0 (default) disables all
  /// hot-path timing even with a registry present — verdicts and
  /// throughput are unperturbed.
  std::size_t telemetry_sample = 0;
};

/// Final per-stream accounting returned by FleetEngine::finish.
struct StreamResult {
  std::string key;
  int shard = 0;
  ids::PipelineCounters counters;
  /// Every closed window in stream order; only when config.collect_verdicts.
  std::vector<analysis::WindowVerdict> verdicts;
};

/// Point-in-time per-stream observability row (FleetEngine::status — the
/// live service's status endpoint). Counters lag the judging thread by at
/// most one batch; queue_depth is approximate by nature (SPSC ring) and 0
/// for a stream run_fleet judges inline.
struct StreamStatus {
  std::string key;
  int shard = 0;
  /// Backend counters as of the last drained batch, with ingest-side
  /// parse_errors and queue_dropped folded in (like StreamResult).
  ids::PipelineCounters counters;
  std::size_t queue_depth = 0;
  bool closed = false;   ///< producer hung up
  bool drained = false;  ///< final window flushed and stream retired
};

struct NamedSource;
struct FleetRunResult;

class FleetEngine {
  struct StreamState;

 public:
  /// One queued frame — the shared compact item (timestamp + CanId), so
  /// extended-frame streams work unchanged and drained batches flow
  /// straight into DetectorBackend::on_frames without conversion.
  using FrameItem = can::TimedId;

  /// Producer-side handle to one stream. At most one thread may push into
  /// a given stream at a time (the queue below is single-producer).
  class Stream {
   public:
    /// Enqueue one frame. kBlock: yields while the bounded queue is full.
    /// kDropNewest: a frame that does not fit is discarded and counted in
    /// queue_dropped().
    void push(util::TimeNs timestamp, can::CanId id);
    /// Enqueue a batch with a single queue publish — the high-throughput
    /// ingest path (serve pushes one batch per recv chunk; run_fleet one
    /// per decoded block when it queues). kBlock: yields until everything
    /// is in. kDropNewest: pushes the prefix that fits, discards (and
    /// counts) the rest.
    void push_batch(const FrameItem* items, std::size_t count);
    /// Record one malformed capture line skipped at ingest; surfaced in
    /// the stream's counters after finish().
    void record_parse_error();
    /// Mark end-of-stream; the shard then flushes the final window —
    /// including a partially-filled one (a mid-window disconnect is still
    /// judged, not silently dropped).
    void close();
    [[nodiscard]] const std::string& key() const noexcept;
    /// Frames discarded by kDropNewest backpressure so far.
    [[nodiscard]] std::uint64_t queue_dropped() const noexcept;
    /// Malformed lines recorded via record_parse_error() so far.
    [[nodiscard]] std::uint64_t parse_errors() const noexcept;
    /// Live observability row for this stream (safe from any thread).
    [[nodiscard]] StreamStatus status() const;

   private:
    friend class FleetEngine;
    explicit Stream(StreamState* state) : state_(state) {}
    StreamState* state_;
  };

  /// Primary constructor: any detector backend; per-stream
  /// instances are stamped out with prototype->clone_for_stream().
  FleetEngine(std::unique_ptr<analysis::DetectorBackend> prototype,
              FleetConfig config = {});

  /// Cold start from persisted models (a loaded bundle): builds the named
  /// registry backend with every model the bundle carries as pretrained
  /// shared state — no stream self-calibrates a model the bundle already
  /// has. `options` supplies the remaining knobs (windowing, alpha, id
  /// pool); its golden/muter_model/interval_model slots are overridden by
  /// the bundle's non-null entries. Throws UnknownDetectorError /
  /// std::invalid_argument exactly like analysis::make_detector.
  FleetEngine(const model::StoredModels& models, std::string_view detector,
              analysis::DetectorOptions options, FleetConfig config = {});
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Register a stream — before start() (the batch pattern) or while the
  /// engine is running (the live-service pattern: a client connects, its
  /// stream joins its shard's rotation within one worker iteration). A
  /// non-empty `id_pool` overrides the prototype's legal-ID set for this
  /// stream, enabling malicious-ID inference on backends that support it;
  /// an empty pool keeps whatever the prototype was built with (see
  /// DetectorBackend::clone_for_stream). Thread-safe against other
  /// open_stream / status / reload_models calls; not against finish().
  Stream open_stream(std::string key,
                     std::vector<std::uint32_t> id_pool = {});

  /// Launch the shard workers.
  void start();

  /// Wait until every stream is closed and fully drained, stop the
  /// workers, and return per-stream results in open_stream order. All
  /// streams must have been close()d (or be closed concurrently by still
  /// running producers) before the engine can finish.
  std::vector<StreamResult> finish();

  /// Hot-swap the trained models every live stream is judged against —
  /// the SIGHUP reload path. Validates against the prototype first (an
  /// incompatible model throws std::invalid_argument and nothing changes),
  /// then rebinds the prototype (so streams opened later start on the new
  /// models) and marks every existing stream; the thread judging a stream
  /// rebinds it in place before its next batch (or its final window) — no
  /// queue is flushed, no window state is lost, no stream disconnects.
  /// Callable from any thread while the engine runs.
  void reload_models(analysis::ModelRefs models);
  /// Completed reload_models generations (0 at start; a stream picks the
  /// latest generation up with its next batch).
  [[nodiscard]] std::uint64_t model_generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  /// Observability snapshot of every stream, in open_stream order (the
  /// status endpoint). Safe while the engine runs.
  [[nodiscard]] std::vector<StreamStatus> status() const;

  /// Fold the engine's live state into config().metrics — the scrape-time
  /// path behind the serve METRICS verb and `canids fleet --metrics-out`.
  /// Reads the same per-stream snapshots as status(), so the exposition,
  /// STATUS, and the fleet table cannot disagree. No-op without a
  /// registry; safe from any thread while the engine runs.
  void publish_metrics();

  [[nodiscard]] int shards() const noexcept { return shard_count_; }
  [[nodiscard]] int shard_of(std::string_view key) const noexcept;
  /// The prototype backend streams are cloned from.
  [[nodiscard]] const analysis::DetectorBackend& detector() const noexcept {
    return *prototype_;
  }
  [[nodiscard]] AlertSink& alerts() noexcept { return alerts_; }
  /// Aggregate counters over all streams; valid after finish().
  [[nodiscard]] const ids::PipelineCounters& totals() const noexcept {
    return totals_;
  }
  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

 private:
  struct Shard {
    /// Streams opened before start(); the worker adopts them at launch.
    std::vector<StreamState*> streams;
    /// Streams opened while running, handed to the worker via the flag.
    std::vector<StreamState*> incoming;
    std::mutex incoming_mutex;
    std::atomic<bool> has_incoming{false};
    std::thread worker;
  };

  /// Opens streams through open_state and, when it judges inline, drives
  /// their StreamState on its own threads.
  friend FleetRunResult run_fleet(FleetEngine& engine,
                                  std::vector<NamedSource> sources,
                                  int producer_threads);

  /// open_stream's body, with the stream's ring size as a parameter.
  StreamState& open_state(std::string key, std::vector<std::uint32_t> id_pool,
                          std::size_t queue_capacity);
  void worker_loop(Shard& shard);

  /// Hot-path latency instruments, registered once at construction when
  /// config.metrics is set with telemetry_sample > 0; judging threads use
  /// the raw pointers (stable for the registry's lifetime).
  struct HotMetrics {
    telemetry::Histogram* scoring = nullptr;
    telemetry::Histogram* verdict_latency = nullptr;
    telemetry::Histogram* occupancy = nullptr;
  };

  std::unique_ptr<analysis::DetectorBackend> prototype_;
  FleetConfig config_;
  int shard_count_;
  std::vector<std::unique_ptr<StreamState>> streams_;
  /// Guards streams_ (open_stream appends while status() iterates).
  mutable std::mutex streams_mutex_;
  /// unique_ptr: Shard owns a mutex + atomic, so it cannot move.
  std::vector<std::unique_ptr<Shard>> shards_;
  AlertSink alerts_;
  ids::PipelineCounters totals_;
  /// Guards prototype_ rebinds/clones and reload_refs_.
  std::mutex reload_mutex_;
  analysis::ModelRefs reload_refs_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> started_{false};
  HotMetrics hot_;
  bool finished_ = false;
  /// finish() in flight: workers may exit once their rotation drains.
  std::atomic<bool> stopping_{false};
  std::atomic<bool> abort_{false};
};

/// A keyed frame source for run_fleet.
struct NamedSource {
  std::string key;
  std::unique_ptr<trace::TraceSource> source;
  /// Optional legal-ID set; non-empty enables inference for this stream.
  std::vector<std::uint32_t> id_pool;
};

struct FleetRunResult {
  std::vector<StreamResult> streams;
  /// Fatal ingest failures as (stream key, error message); the stream
  /// keeps the frames that arrived before the failure. Per-line parse
  /// errors are NOT fatal — they are counted in the stream's
  /// counters.parse_errors and ingest continues on the next line.
  std::vector<std::pair<std::string, std::string>> errors;
};

/// Batch replay into a fresh engine (no stream opened, not start()ed):
/// one stream per source, `producer_threads` threads (0 = shard count)
/// work-stealing whole sources; a source is read by exactly one thread,
/// preserving its frame order, and the calling thread works too. Each
/// thread decodes its source in config.drain_batch blocks. With at least
/// as many sources as threads it judges each block itself on that
/// stream's backend and retires the stream at its end (final partial
/// window, drained, stream_drained event): no queue, no shard worker, so
/// every thread is a judging thread. With fewer sources than threads the
/// spare cores are better spent overlapping decode and judging (decoding
/// candump text costs more per frame than bit-entropy judging it), so the
/// blocks go through the streams' queues to the shard workers, like
/// serve's. Then finish().
FleetRunResult run_fleet(FleetEngine& engine,
                         std::vector<NamedSource> sources,
                         int producer_threads = 0);

}  // namespace canids::engine
