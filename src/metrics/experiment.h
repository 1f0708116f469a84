// The reproduction harness: trains the golden template the way the paper
// does (35 windows over diverse driving behaviours) and the two baseline
// models, then runs trials. Every trial — a synthetic attack on the
// simulated bus, a single-ID sweep, or a recorded capture — drives one
// detector backend and returns an InstrumentedTrial, scored by
// one rule set: frame detection rate, window confusion, inference
// accuracy, injection rate, and the per-window observation log that ROC
// and latency metrics need. summarize() aggregates the trials of one
// scenario the way Table I does. Every paper bench (Fig. 2/3, Table I,
// ablations, the §V.E comparisons) is a thin wrapper over this runner.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/registry.h"
#include "attacks/scenario.h"
#include "ids/pipeline.h"
#include "metrics/confusion.h"
#include "model/store.h"
#include "trace/capture_labels.h"
#include "trace/synthetic_vehicle.h"
#include "trace/trace_source.h"

namespace canids::metrics {

struct ExperimentConfig {
  trace::VehicleConfig vehicle;
  ids::PipelineConfig pipeline;
  /// Training windows for the golden template (paper: 35, five per
  /// driving behaviour).
  std::size_t training_windows = ids::kPaperTrainingWindows;
  /// Attack trial timing: the attacker starts after a clean lead-in and
  /// runs until the end of the trial.
  util::TimeNs clean_lead_in = 3 * util::kSecond;
  util::TimeNs attack_duration = 20 * util::kSecond;
  /// Master seed; all per-trial randomness derives from it.
  std::uint64_t seed = 0x5EC0DE;

  /// Baseline-detector knobs for the §V.E comparison trials. The models
  /// are trained lazily on clean traffic.
  baselines::MuterConfig muter;
  baselines::IntervalConfig interval;
};

/// One closed window as an instrumented trial observed it — enough to
/// re-score the run at any detector sensitivity after the fact (the ROC
/// sweep) and to measure detection latency at window granularity.
struct WindowObservation {
  util::TimeNs start = 0;
  util::TimeNs end = 0;
  std::uint64_t frames = 0;
  std::uint64_t injected = 0;  ///< attack frames that landed in the window
  bool evaluated = false;
  bool alert = false;          ///< at the backend's native threshold
  double metric = 0.0;
  double threshold = 0.0;

  /// Threshold-free anomaly score: the backend's decision variable
  /// normalized by its own threshold. Judging `score() >= scale` over a
  /// scale sweep reproduces the full ROC curve, and scale 1 reproduces the
  /// native verdicts — exactly for the integer-threshold backends
  /// (interval, ensemble), which alert at metric >= threshold, and up to
  /// exact floating-point threshold equality for the entropy backends,
  /// which alert at metric > threshold.
  [[nodiscard]] double score() const noexcept {
    if (threshold > 0.0) return metric / threshold;
    return metric > 0.0 ? 1e9 : 0.0;
  }

  friend bool operator==(const WindowObservation&,
                         const WindowObservation&) = default;
};

/// Outcome of one trial: any detector backend over an attacked drive or
/// a recorded capture, with the paper-methodology aggregates (frame
/// detection rate, window confusion, inference accuracy, injection rate)
/// PLUS the per-window observation log that ROC and latency metrics need.
struct InstrumentedTrial {
  std::string backend;
  attacks::ScenarioKind kind{};
  /// Set when the trial injected one caller-chosen identifier (ID sweep).
  std::optional<std::uint32_t> single_id;
  /// Set when the trial replayed a recorded capture instead of driving the
  /// synthetic vehicle (capture-replay campaigns); the capture file name.
  std::string capture;
  double frequency_hz = 0.0;
  std::uint64_t trial_seed = 0;
  std::vector<std::uint32_t> planned_ids;
  util::TimeNs attack_start = 0;
  util::TimeNs attack_end = 0;
  /// Labeled attack intervals for capture trials (possibly several per
  /// recording, possibly none for a clean capture). Empty for synthetic
  /// trials, whose single interval is [attack_start, attack_end).
  std::vector<trace::LabelInterval> attack_intervals;

  FrameDetection frames;          ///< D_r accounting
  WindowConfusion windows;        ///< window-level confusion incl. FPs
  double detection_rate = 0.0;    ///< frames.detection_rate()
  /// Mean hit fraction of ID inference over alerted attack windows
  /// (nullopt when the scenario is not inferable or nothing alerted).
  std::optional<double> inference_accuracy;
  /// Raw inference-event accounting backing inference_accuracy, used by
  /// summarize() to weight by detection events as the paper does.
  double inference_hit_sum = 0.0;
  std::uint64_t inference_windows = 0;
  double injection_rate_arbitration = 0.0;  ///< wins / arbitration attempts
  double injection_rate_success = 0.0;      ///< transmitted / generated
  std::uint64_t injected_transmitted = 0;
  double bus_load = 0.0;

  std::vector<WindowObservation> observations;  ///< bus order
  ids::PipelineCounters counters;

  /// Ground truth of a window: does [start, end) overlap the attack? One
  /// interval [attack_start, attack_end) for synthetic trials, any labeled
  /// interval for capture trials (none for a clean recording). Trial
  /// scoring and the campaign ROC sweep both judge windows by it.
  [[nodiscard]] bool overlaps_attack(util::TimeNs start,
                                     util::TimeNs end) const noexcept;

  /// Window-granularity detection latency: end of the first alerting window
  /// closing after the attack begins, minus the attack start. nullopt when
  /// the attack was never flagged (false positives before the attack do
  /// not count).
  [[nodiscard]] std::optional<util::TimeNs> detection_latency() const noexcept;
};

/// Aggregate of several trials of the same scenario — the Table I
/// aggregation.
struct ScenarioSummary {
  attacks::ScenarioKind kind{};
  std::size_t trials = 0;
  FrameDetection frames;             ///< summed over trials
  WindowConfusion windows;           ///< summed over trials
  double detection_rate = 0.0;       ///< frame-weighted across trials
  /// Per inference event (alerted attack window) across trials, as the
  /// paper's rank-selection hit rate; nullopt when no window was inferred.
  std::optional<double> inference_accuracy;
  double false_positive_rate = 0.0;  ///< window-level, across trials
  double mean_injection_rate = 0.0;  ///< arbitration view, mean over trials
};

/// Aggregate `trials` (all of scenario `kind`) into a ScenarioSummary.
[[nodiscard]] ScenarioSummary summarize(
    attacks::ScenarioKind kind, std::span<const InstrumentedTrial> trials);

/// Everything an ExperimentRunner trains lazily, bundled as immutable
/// shared handles: the model-store set plus the golden template's training
/// windows. A campaign trains ONE runner and hands the bundle to every
/// worker runner, so an N-trial sweep pays one training pass instead of
/// one per worker. model::pack / model::unpack persist the model-store
/// slice.
struct SharedModels : model::StoredModels {
  /// Measurement by-products of training the golden template (Fig. 2, the
  /// stability bench), not a model: they never persist.
  std::vector<ids::WindowSnapshot> training_snapshots;

  /// A copy of the persistable slice (a SharedModels already is one).
  [[nodiscard]] model::StoredModels stored() const { return *this; }
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentConfig config = {});

  [[nodiscard]] const trace::SyntheticVehicle& vehicle() const noexcept {
    return vehicle_;
  }
  [[nodiscard]] const ExperimentConfig& config() const noexcept {
    return config_;
  }

  /// Build (and cache) the golden template from `training_windows` clean
  /// windows spread evenly over all driving behaviours.
  [[nodiscard]] const ids::GoldenTemplate& train();

  /// Same template as a shareable immutable handle; every trial pipeline
  /// (and any fleet engine built on this runner) references it copy-free.
  [[nodiscard]] std::shared_ptr<const ids::GoldenTemplate> train_shared();

  /// The individual training windows (for Fig. 2 and the stability bench).
  [[nodiscard]] const std::vector<ids::WindowSnapshot>& training_snapshots();

  /// Train everything this runner can train (golden template + both
  /// baseline models) exactly once and return the bundle as shareable
  /// immutable handles.
  [[nodiscard]] SharedModels trained_models();

  /// Adopt pretrained models — typically another runner's trained_models()
  /// — so this runner never pays its own training pass. Partial bundles
  /// are fine: absent entries remain lazily trainable. Must be called
  /// before anything triggered training on this runner.
  void adopt_models(const SharedModels& models);

  /// Training passes this runner actually performed: one per model built
  /// from scratch (golden template, Müter band, interval periods). Adopted
  /// models never count — so a bundle cold-start that covers every model a
  /// campaign needs reports 0 here, the verifiable "no training happened"
  /// guarantee.
  [[nodiscard]] std::uint64_t training_passes() const noexcept {
    return training_passes_;
  }

  // ---- detector backends ---------------------------------------------------

  /// Whole-distribution entropy baseline trained on clean traffic from
  /// every driving behaviour (lazily built, then shared).
  [[nodiscard]] std::shared_ptr<const baselines::MuterEntropyIds>
  muter_model();

  /// Interval baseline with frozen learned periods (lazily built, shared).
  [[nodiscard]] std::shared_ptr<const baselines::IntervalIds>
  interval_model();

  /// Which lazily-trained baseline models a backend name consumes — the
  /// single gating rule shared by make_backend and by campaign training.
  struct BackendModelNeeds {
    bool muter = false;
    bool interval = false;
  };
  [[nodiscard]] static BackendModelNeeds backend_model_needs(
      std::string_view name) noexcept;

  /// A detector-table backend wired with this runner's golden template, the
  /// vehicle's id pool, the pipeline config, and the baseline models the
  /// name needs (trained on first use). Always pooled, so an inferring
  /// backend infers on every alert; trials build theirs with
  /// make_trial_backend instead.
  [[nodiscard]] std::unique_ptr<analysis::DetectorBackend> make_backend(
      std::string_view name);

  /// The backend an attack trial of `kind` drives: as make_backend, but
  /// given the id pool only when the scenario is inferable, the one case
  /// in which the trial's score reads inference. A pool-less backend judges
  /// every window the same, counting no bit pairs and inferring nothing.
  [[nodiscard]] std::unique_ptr<analysis::DetectorBackend> make_trial_backend(
      std::string_view name, attacks::ScenarioKind kind);

  // ---- trials ---------------------------------------------------------------

  /// Run one attack trial through any detector backend: the vehicle
  /// drives clean for `clean_lead_in`, then the attacker runs for
  /// `attack_duration`. `trial_seed` individualises the run; the driving
  /// behaviour is rotated from it. The backend comes from
  /// make_trial_backend, so only inferable scenarios infer.
  [[nodiscard]] InstrumentedTrial run_instrumented_trial(
      std::string_view backend, attacks::ScenarioKind kind,
      double frequency_hz, std::uint64_t trial_seed);

  /// Single-ID sweep trial (Fig. 3): as run_instrumented_trial, injecting
  /// one caller-chosen identifier.
  [[nodiscard]] InstrumentedTrial run_instrumented_single_id_trial(
      std::string_view backend, std::uint32_t id, double frequency_hz,
      std::uint64_t trial_seed);

  /// Replay a recorded capture through any detector backend instead of
  /// driving the synthetic vehicle. Timestamps are normalized to the
  /// capture's first frame, so recordings with absolute epoch times score
  /// correctly against the capture-relative label intervals. Ground truth
  /// comes from `attacks` (the sidecar label intervals; empty = a clean
  /// capture): a window is positive when it overlaps any labeled
  /// interval, and a frame counts as injected when its timestamp falls
  /// inside one (an attribution proxy — recorded traffic has no per-frame
  /// attacker tag). Injection-rate and bus-load fields stay 0; ROC
  /// observations and detection latency work exactly as in synthetic
  /// trials. Recorded traffic has no planned IDs to score inference
  /// against, so the backend gets no id pool.
  [[nodiscard]] InstrumentedTrial run_capture_trial(
      std::string_view backend, trace::TraceSource& source,
      const std::vector<trace::LabelInterval>& attacks,
      std::string capture_name, std::uint64_t trial_seed);

 private:
  [[nodiscard]] attacks::AttackConfig attack_config(
      double frequency_hz) const noexcept;
  [[nodiscard]] InstrumentedTrial run_attack(std::string_view backend,
                                             attacks::BuiltAttack attack,
                                             double frequency_hz,
                                             std::uint64_t trial_seed);
  /// make_backend, with the vehicle's id pool only when `pooled`.
  [[nodiscard]] std::unique_ptr<analysis::DetectorBackend> build_backend(
      std::string_view name, bool pooled);

  ExperimentConfig config_;
  trace::SyntheticVehicle vehicle_;
  std::shared_ptr<const ids::GoldenTemplate> golden_;
  std::vector<ids::WindowSnapshot> training_snapshots_;
  std::shared_ptr<const baselines::MuterEntropyIds> muter_model_;
  std::shared_ptr<const baselines::IntervalIds> interval_model_;
  std::uint64_t training_passes_ = 0;
};

}  // namespace canids::metrics
