// The four built-in DetectorBackend implementations:
//
//   * BitEntropyBackend    — the paper's bit-slice entropy IDS (wraps
//                            IdsPipeline; shares a GoldenTemplate).
//   * SymbolEntropyBackend — Müter & Asaj [8] whole-distribution entropy
//                            (wraps SymbolEntropyAccumulator +
//                            MuterEntropyIds).
//   * IntervalBackend      — Song et al. [11] message-interval IDS (wraps
//                            IntervalIds, adds the windowing it lacked).
//   * EnsembleDetector     — majority vote of the three above.
//
// The baselines support two trained-state modes: a pre-trained immutable
// model shared across clones (the experiment harness trains one), or
// self-calibration on the head of each stream (the CLI path, where only
// the capture itself is available).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/detector_backend.h"
#include "baselines/interval_ids.h"
#include "baselines/muter_entropy.h"
#include "ids/pipeline.h"

namespace canids::analysis {

/// The paper's detector behind the unified interface.
class BitEntropyBackend final : public DetectorBackend {
 public:
  /// `golden` must be non-null. A non-empty `id_pool` enables malicious-ID
  /// inference on alerting windows.
  BitEntropyBackend(std::shared_ptr<const ids::GoldenTemplate> golden,
                    std::vector<std::uint32_t> id_pool,
                    ids::PipelineConfig config = {});

  std::optional<WindowVerdict> on_frame(util::TimeNs timestamp,
                                        const can::CanId& id) override;
  /// The batched hot path: width-matching runs flow block-wise through
  /// IdsPipeline::on_frames (SIMD-counted); results are bit-identical to
  /// the per-frame loop.
  void on_frames(const can::TimedId* frames, std::size_t count,
                 std::vector<WindowVerdict>& out) override;
  /// Takes `models.golden` (same identifier width required); the open
  /// window's bit counts, clock, and counters are kept.
  void rebind_models(const ModelRefs& models) override;
  std::optional<WindowVerdict> finish() override;
  [[nodiscard]] const ids::PipelineCounters& counters() const override {
    return counters_;
  }
  [[nodiscard]] DetectorInfo describe() const override;
  [[nodiscard]] std::unique_ptr<DetectorBackend> clone_for_stream(
      std::vector<std::uint32_t> id_pool = {}) const override;

  /// The wrapped pipeline (bit-level detail beyond the verdict model).
  [[nodiscard]] const ids::IdsPipeline& pipeline() const noexcept {
    return pipeline_;
  }

 private:
  [[nodiscard]] WindowVerdict verdict_of(const ids::WindowReport& report);

  std::shared_ptr<const ids::GoldenTemplate> golden_;
  std::vector<std::uint32_t> id_pool_;
  ids::PipelineConfig config_;
  ids::IdsPipeline pipeline_;
  ids::PipelineCounters counters_;
  std::vector<ids::WindowReport> report_scratch_;  ///< on_frames buffer
};

/// Whole-ID-distribution entropy (Müter & Asaj [8]).
class SymbolEntropyBackend final : public DetectorBackend {
 public:
  /// With a pre-trained `model`, every window is judged from the start;
  /// with nullptr the backend trains itself on the first
  /// `calibration_windows` windows of its own stream (emitted unevaluated).
  SymbolEntropyBackend(
      std::shared_ptr<const baselines::MuterEntropyIds> model,
      baselines::MuterConfig config, util::TimeNs window_duration,
      std::size_t calibration_windows);

  std::optional<WindowVerdict> on_frame(util::TimeNs timestamp,
                                        const can::CanId& id) override;
  /// Takes `models.muter`: the backend becomes (or stays) pre-trained and
  /// any in-progress self-calibration is abandoned. The open window's
  /// symbol counts are kept — only the band the next close is judged
  /// against changes.
  void rebind_models(const ModelRefs& models) override;
  std::optional<WindowVerdict> finish() override;
  [[nodiscard]] const ids::PipelineCounters& counters() const override {
    return counters_;
  }
  [[nodiscard]] DetectorInfo describe() const override;
  [[nodiscard]] std::unique_ptr<DetectorBackend> clone_for_stream(
      std::vector<std::uint32_t> id_pool = {}) const override;

 private:
  [[nodiscard]] WindowVerdict judge(const baselines::SymbolWindow& window);

  std::shared_ptr<const baselines::MuterEntropyIds> pretrained_;
  std::shared_ptr<const baselines::MuterEntropyIds> model_;
  baselines::MuterConfig config_;
  util::TimeNs window_duration_;
  std::size_t calibration_windows_;
  baselines::SymbolEntropyAccumulator accumulator_;
  std::vector<baselines::SymbolWindow> training_;
  ids::PipelineCounters counters_;
};

/// Message-interval IDS (Song et al. [11]) with time-based windowing.
class IntervalBackend final : public DetectorBackend {
 public:
  /// With a pre-trained `model` (frozen learned periods, pristine runtime
  /// state), detection starts immediately; with nullptr the backend trains
  /// on the first `calibration_windows` windows of its own stream.
  IntervalBackend(std::shared_ptr<const baselines::IntervalIds> model,
                  baselines::IntervalConfig config,
                  util::TimeNs window_duration,
                  std::size_t calibration_windows);

  std::optional<WindowVerdict> on_frame(util::TimeNs timestamp,
                                        const can::CanId& id) override;
  /// Takes `models.interval` (must be trained — frozen learned periods).
  /// The per-ID arrival tracking lives inside the detector, so the
  /// currently-open window restarts violation counting at the swap; the
  /// window clock and counters are kept.
  void rebind_models(const ModelRefs& models) override;
  std::optional<WindowVerdict> finish() override;
  [[nodiscard]] const ids::PipelineCounters& counters() const override {
    return counters_;
  }
  [[nodiscard]] DetectorInfo describe() const override;
  [[nodiscard]] std::unique_ptr<DetectorBackend> clone_for_stream(
      std::vector<std::uint32_t> id_pool = {}) const override;

 private:
  [[nodiscard]] WindowVerdict close_window(util::TimeNs start,
                                           util::TimeNs end);

  std::shared_ptr<const baselines::IntervalIds> pretrained_;
  baselines::IntervalConfig config_;
  util::TimeNs window_duration_;
  std::size_t calibration_windows_;
  baselines::IntervalIds detector_;
  util::WindowClock clock_;
  util::TimeNs last_timestamp_ = 0;
  std::uint64_t frames_in_window_ = 0;
  std::size_t windows_trained_ = 0;
  ids::PipelineCounters counters_;
};

/// Runs every member over the same frames and alerts on a majority of the
/// members that judged the window. Members must share one window duration
/// so their windows close on the same frames (make_detector builds the
/// bit-entropy, symbol-entropy and interval members from one options set).
class EnsembleDetector final : public DetectorBackend {
 public:
  explicit EnsembleDetector(
      std::vector<std::unique_ptr<DetectorBackend>> members);

  std::optional<WindowVerdict> on_frame(util::TimeNs timestamp,
                                        const can::CanId& id) override;
  /// Forwards to every member (each takes its slice of the refs). All-or-
  /// nothing: members are validated against the refs first, so an
  /// incompatible model leaves every member untouched.
  void rebind_models(const ModelRefs& models) override;
  std::optional<WindowVerdict> finish() override;
  [[nodiscard]] const ids::PipelineCounters& counters() const override {
    return counters_;
  }
  [[nodiscard]] DetectorInfo describe() const override;
  [[nodiscard]] std::unique_ptr<DetectorBackend> clone_for_stream(
      std::vector<std::uint32_t> id_pool = {}) const override;

 private:
  [[nodiscard]] WindowVerdict combine(
      const std::vector<std::pair<std::string, WindowVerdict>>& emitted);

  std::vector<std::unique_ptr<DetectorBackend>> members_;
  ids::PipelineCounters counters_;
};

}  // namespace canids::analysis
