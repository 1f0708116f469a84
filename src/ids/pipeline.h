// End-to-end IDS pipeline: identifier stream -> windows -> detection ->
// (on alert) malicious-ID inference. This is the object an integrator
// attaches to a CAN interface; it is deliberately independent of the bus
// simulator and the trace formats.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "ids/detector.h"
#include "ids/inference.h"
#include "ids/window.h"

namespace canids::ids {

struct PipelineConfig {
  WindowConfig window;
  DetectorConfig detector;
  InferenceConfig inference;
};

/// Everything known about one closed window.
struct WindowReport {
  WindowSnapshot snapshot;
  DetectionResult detection;
  /// Present when the window alerted and inference is enabled.
  std::optional<InferenceResult> inference;

  friend bool operator==(const WindowReport&, const WindowReport&) = default;
};

struct PipelineCounters {
  std::uint64_t frames = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t windows_evaluated = 0;
  std::uint64_t alerts = 0;
  /// Malformed capture lines skipped at ingest (candump/vspy parsers).
  /// Counted by the ingest layer (run_fleet, CLI), not the pipeline itself.
  std::uint64_t parse_errors = 0;
  /// Frames a detector backend could not judge and skipped (e.g. extended
  /// 29-bit IDs against an 11-bit golden template). Subset of `frames`.
  std::uint64_t dropped_frames = 0;
  /// Frames discarded BEFORE the detector by drop-newest backpressure on a
  /// full stream queue (fleet engine / live service). Disjoint from
  /// `frames`: a queue-dropped frame was never fed to the backend.
  std::uint64_t queue_dropped = 0;

  PipelineCounters& operator+=(const PipelineCounters& other) noexcept {
    frames += other.frames;
    windows_closed += other.windows_closed;
    windows_evaluated += other.windows_evaluated;
    alerts += other.alerts;
    parse_errors += other.parse_errors;
    dropped_frames += other.dropped_frames;
    queue_dropped += other.queue_dropped;
    return *this;
  }

  friend bool operator==(const PipelineCounters&,
                         const PipelineCounters&) = default;
};

class IdsPipeline {
 public:
  /// Primary constructor: shares one immutable template across any number
  /// of pipelines (the fleet engine runs thousands of streams against a
  /// single copy). An empty `id_pool` disables malicious-ID inference;
  /// detection is unaffected.
  IdsPipeline(std::shared_ptr<const GoldenTemplate> golden,
              std::vector<std::uint32_t> id_pool, PipelineConfig config = {});

  /// Convenience: wraps a caller-owned template into a private shared copy.
  IdsPipeline(GoldenTemplate golden, std::vector<std::uint32_t> id_pool,
              PipelineConfig config = {});

  /// Feed one frame. Returns the report of a window this frame closed, if
  /// any (alerting or not; check report.detection.alert).
  std::optional<WindowReport> on_frame(util::TimeNs timestamp,
                                       const can::CanId& id);

  /// Batch path: feed `count` frames, appending the report of every window
  /// they close to `out`, in close order. Bit-identical to on_frame per
  /// frame (the detector is stateless, so deferred judging changes
  /// nothing); windowing and counting run block-wise through the SIMD
  /// kernels.
  void on_frames(const can::TimedId* frames, std::size_t count,
                 std::vector<WindowReport>& out);

  /// Advance the window clock for a frame the caller skips (e.g. an
  /// identifier whose width the template cannot represent): the frame is
  /// not counted, but its timestamp may still close the current window —
  /// keeping boundaries aligned with detectors that consume every frame.
  std::optional<WindowReport> on_gap(util::TimeNs timestamp);

  /// Close and judge the partially-filled final window.
  std::optional<WindowReport> finish();

  /// Hot-swap the golden template IN PLACE: the detector and inference
  /// engine are rebuilt against `golden`, while the open window's
  /// accumulated bit counts, the window clock, and all counters are kept —
  /// the next window close is simply judged against the new template.
  /// `golden` must be non-null and match the current template's identifier
  /// width (the accumulator's live bit counts are width-shaped); throws
  /// std::invalid_argument otherwise, leaving the pipeline untouched.
  void rebind(std::shared_ptr<const GoldenTemplate> golden);

  [[nodiscard]] const PipelineCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const Detector& detector() const noexcept { return detector_; }
  /// Whether alerted windows get a malicious-ID inference pass (requires a
  /// non-empty id pool).
  [[nodiscard]] bool inference_enabled() const noexcept {
    return inference_.has_value();
  }
  /// The inference engine; only callable when inference_enabled().
  [[nodiscard]] const InferenceEngine& inference_engine() const {
    CANIDS_EXPECTS(inference_.has_value());
    return *inference_;
  }
  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

 private:
  [[nodiscard]] WindowReport judge(WindowSnapshot snapshot);

  PipelineConfig config_;
  WindowAccumulator accumulator_;
  Detector detector_;
  std::optional<InferenceEngine> inference_;
  PipelineCounters counters_;
  std::vector<WindowSnapshot> snapshot_scratch_;  ///< on_frames buffer
};

}  // namespace canids::ids
