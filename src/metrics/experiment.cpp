#include "metrics/experiment.h"

#include <algorithm>
#include <deque>

#include "trace/trace_io.h"
#include "util/contracts.h"

namespace canids::metrics {

namespace {

/// Deterministic sub-seed derivation.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base,
                                        std::uint64_t salt) noexcept {
  std::uint64_t state = base ^ (salt * 0x9e3779b97f4a7c15ULL);
  return util::splitmix64(state);
}

[[nodiscard]] WindowObservation observation_of(
    const analysis::WindowVerdict& verdict, std::uint64_t injected) {
  WindowObservation observation;
  observation.start = verdict.start;
  observation.end = verdict.end;
  observation.frames = verdict.frames;
  observation.injected = injected;
  observation.evaluated = verdict.evaluated;
  observation.alert = verdict.alert;
  observation.metric = verdict.metric;
  observation.threshold = verdict.threshold;
  return observation;
}

/// Scores one trial's frames and window verdicts into its
/// InstrumentedTrial — the ONE scoring routine of the synthetic and capture
/// paths. The caller says whether each frame was injected (the
/// attacker-node tag there, a labeled interval here); the trial's own
/// overlaps_attack() is the window ground truth. Frames are attributed to
/// windows by timestamp as windows close, so the attribution works for any
/// backend's frame accounting (including ones that drop frames): a frame
/// whose timestamp reaches the window boundary belongs to the next window.
class TrialScorer {
 public:
  /// `infer`: score ID inference on alerting windows fully inside the
  /// attack (the paper's inference events; boundary windows carry only a
  /// partial injection signature).
  TrialScorer(InstrumentedTrial& trial, analysis::DetectorBackend& backend,
              bool infer)
      : trial_(trial), backend_(backend), infer_(infer) {}

  void on_frame(util::TimeNs timestamp, const can::CanId& id, bool injected) {
    pending_.emplace_back(timestamp, injected);
    if (auto verdict = backend_.on_frame(timestamp, id)) {
      score(*verdict, /*final_window=*/false);
    }
  }

  /// Close the trailing window and fill the trial's derived fields.
  void finish() {
    if (auto verdict = backend_.finish()) {
      score(*verdict, /*final_window=*/true);
    }
    trial_.detection_rate = trial_.frames.detection_rate();
    if (trial_.inference_windows > 0) {
      trial_.inference_accuracy =
          trial_.inference_hit_sum /
          static_cast<double>(trial_.inference_windows);
    }
    trial_.counters = backend_.counters();
  }

 private:
  void score(const analysis::WindowVerdict& verdict, bool final_window) {
    std::uint64_t injected = 0;
    while (!pending_.empty() &&
           (final_window || pending_.front().first < verdict.end)) {
      if (pending_.front().second) ++injected;
      pending_.pop_front();
    }
    trial_.observations.push_back(observation_of(verdict, injected));
    if (!verdict.evaluated) return;

    trial_.frames.record_window(injected, verdict.alert);
    trial_.windows.record(trial_.overlaps_attack(verdict.start, verdict.end),
                          verdict.alert);
    const bool inside_attack = verdict.start >= trial_.attack_start &&
                               verdict.end <= trial_.attack_end;
    if (infer_ && verdict.alert && inside_attack && verdict.detail &&
        !trial_.planned_ids.empty()) {
      trial_.inference_hit_sum += ids::inference_hit_fraction(
          trial_.planned_ids, verdict.detail->ranked_candidates);
      ++trial_.inference_windows;
    }
  }

  InstrumentedTrial& trial_;
  analysis::DetectorBackend& backend_;
  const bool infer_;
  std::deque<std::pair<util::TimeNs, bool>> pending_;
};

}  // namespace

std::optional<util::TimeNs> InstrumentedTrial::detection_latency()
    const noexcept {
  if (!capture.empty()) {
    // Capture trials may label several attack intervals: the latency is
    // measured from the start of the interval the first alerting window
    // actually overlaps (earliest such interval for a window spanning
    // more than one). Alerts in unlabeled gaps are false positives, not
    // detections, and never count; a clean capture has no latency at all.
    for (const WindowObservation& window : observations) {
      if (!window.evaluated || !window.alert) continue;
      for (const trace::LabelInterval& interval : attack_intervals) {
        // Intervals are sorted by start; overlap implies a positive
        // window.end - interval.start.
        if (interval.overlaps(window.start, window.end)) {
          return window.end - interval.start;
        }
      }
    }
    return std::nullopt;
  }
  for (const WindowObservation& window : observations) {
    if (window.evaluated && window.alert && window.end > attack_start) {
      return window.end - attack_start;
    }
  }
  return std::nullopt;
}

bool InstrumentedTrial::overlaps_attack(util::TimeNs start,
                                        util::TimeNs end) const noexcept {
  if (!capture.empty()) {
    for (const trace::LabelInterval& interval : attack_intervals) {
      if (interval.overlaps(start, end)) return true;
    }
    return false;
  }
  return start < attack_end && end > attack_start;
}

ScenarioSummary summarize(attacks::ScenarioKind kind,
                          std::span<const InstrumentedTrial> trials) {
  ScenarioSummary summary;
  summary.kind = kind;
  summary.trials = trials.size();
  double injection_sum = 0.0;
  double inference_hit_sum = 0.0;
  std::uint64_t inference_windows = 0;
  for (const InstrumentedTrial& trial : trials) {
    summary.frames += trial.frames;
    summary.windows += trial.windows;
    injection_sum += trial.injection_rate_arbitration;
    inference_hit_sum += trial.inference_hit_sum;
    inference_windows += trial.inference_windows;
  }
  summary.detection_rate = summary.frames.detection_rate();
  summary.false_positive_rate = summary.windows.false_positive_rate();
  if (summary.trials > 0) {
    summary.mean_injection_rate =
        injection_sum / static_cast<double>(summary.trials);
  }
  if (inference_windows > 0) {
    // Per detection event, matching the paper's rank-selection hit rate:
    // every alerted attack window is one inference attempt.
    summary.inference_accuracy =
        inference_hit_sum / static_cast<double>(inference_windows);
  }
  return summary;
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(config), vehicle_(config.vehicle) {
  CANIDS_EXPECTS(config_.training_windows >= 2);
  CANIDS_EXPECTS(config_.attack_duration > 0);
}

const ids::GoldenTemplate& ExperimentRunner::train() {
  return *train_shared();
}

std::shared_ptr<const ids::GoldenTemplate> ExperimentRunner::train_shared() {
  if (golden_) return golden_;
  ++training_passes_;

  const util::TimeNs window = config_.pipeline.window.duration;
  const std::size_t per_behavior =
      (config_.training_windows + trace::kAllBehaviors.size() - 1) /
      trace::kAllBehaviors.size();

  ids::TemplateBuilder builder(can::kStdIdBits);
  std::size_t behavior_index = 0;
  while (builder.window_count() < config_.training_windows) {
    const trace::DrivingBehavior behavior =
        trace::kAllBehaviors[behavior_index % trace::kAllBehaviors.size()];
    const std::uint64_t run_seed =
        derive_seed(config_.seed, 1000 + behavior_index);
    // One extra window of traffic so the trailing partial window can be
    // discarded without starving the builder.
    const util::TimeNs duration =
        static_cast<util::TimeNs>(per_behavior + 1) * window;
    const trace::Trace capture =
        vehicle_.record_trace(behavior, duration, run_seed);

    std::vector<can::TimedFrame> frames;
    frames.reserve(capture.size());
    for (const trace::LogRecord& record : capture) {
      frames.push_back(can::TimedFrame{record.timestamp, record.frame,
                                       can::TimedFrame::kUnknownSource});
    }
    for (const ids::WindowSnapshot& snap :
         ids::windows_of(frames, config_.pipeline.window)) {
      // Keep only complete windows (flush() emits a short trailing one).
      if (snap.end - snap.start != window) continue;
      if (builder.window_count() >= config_.training_windows) break;
      builder.add_window(snap);
      training_snapshots_.push_back(snap);
    }
    ++behavior_index;
  }

  golden_ = std::make_shared<const ids::GoldenTemplate>(builder.build());
  return golden_;
}

const std::vector<ids::WindowSnapshot>& ExperimentRunner::training_snapshots() {
  (void)train();
  return training_snapshots_;
}

SharedModels ExperimentRunner::trained_models() {
  SharedModels models;
  models.golden = train_shared();
  models.training_snapshots = training_snapshots_;
  models.muter = muter_model();
  models.interval = interval_model();
  return models;
}

void ExperimentRunner::adopt_models(const SharedModels& models) {
  if (models.golden) {
    golden_ = models.golden;
    training_snapshots_ = models.training_snapshots;
  }
  if (models.muter) muter_model_ = models.muter;
  if (models.interval) interval_model_ = models.interval;
}

attacks::AttackConfig ExperimentRunner::attack_config(
    double frequency_hz) const noexcept {
  attacks::AttackConfig attack_config;
  attack_config.frequency_hz = frequency_hz;
  attack_config.start = config_.clean_lead_in;
  attack_config.stop = config_.clean_lead_in + config_.attack_duration;
  return attack_config;
}

InstrumentedTrial ExperimentRunner::run_instrumented_trial(
    std::string_view backend, attacks::ScenarioKind kind, double frequency_hz,
    std::uint64_t trial_seed) {
  util::Rng rng(derive_seed(config_.seed, 77 + trial_seed));
  return run_attack(backend,
                    attacks::make_scenario(kind, vehicle_,
                                           attack_config(frequency_hz), rng),
                    frequency_hz, trial_seed);
}

InstrumentedTrial ExperimentRunner::run_instrumented_single_id_trial(
    std::string_view backend, std::uint32_t id, double frequency_hz,
    std::uint64_t trial_seed) {
  util::Rng rng(derive_seed(config_.seed, 991 + trial_seed));
  InstrumentedTrial trial = run_attack(
      backend,
      attacks::make_single_id_attack(attack_config(frequency_hz), id, rng),
      frequency_hz, trial_seed);
  trial.single_id = id;
  return trial;
}

InstrumentedTrial ExperimentRunner::run_attack(std::string_view backend_name,
                                               attacks::BuiltAttack attack,
                                               double frequency_hz,
                                               std::uint64_t trial_seed) {
  InstrumentedTrial result;
  result.backend = std::string(backend_name);
  result.kind = attack.kind;
  result.frequency_hz = frequency_hz;
  result.trial_seed = trial_seed;
  result.planned_ids = attack.planned_ids;
  result.attack_start = attack.node->attack_config().start;
  result.attack_end = attack.node->attack_config().stop;

  const trace::DrivingBehavior behavior =
      trace::kAllBehaviors[trial_seed % trace::kAllBehaviors.size()];

  can::BusSimulator bus(config_.vehicle.bus);
  vehicle_.attach_to(bus, behavior, derive_seed(config_.seed, 5 + trial_seed));

  // attach_attack (not add_node) so suspend/masquerade attackers resolve
  // their victim ECU on the freshly-attached vehicle.
  const attacks::AttachedAttack attached = attacks::attach_attack(bus, attack);
  attacks::AttackNode* attacker = attached.node;
  const int attacker_index = attached.index;

  const std::unique_ptr<analysis::DetectorBackend> backend =
      make_backend(backend_name);
  TrialScorer scorer(result, *backend,
                     attacks::scenario_inferable(attack.kind) &&
                         backend->describe().supports_inference);
  bus.add_listener([&](const can::TimedFrame& frame) {
    scorer.on_frame(frame.timestamp, frame.frame.id(),
                    frame.source_node == attacker_index);
  });
  bus.run_until(result.attack_end);
  scorer.finish();

  result.injection_rate_arbitration =
      attacker->stats().arbitration_win_ratio();
  result.injection_rate_success = attacker->stats().injection_success_ratio();
  result.injected_transmitted = attacker->stats().transmitted;
  result.bus_load = bus.stats().load();
  return result;
}

InstrumentedTrial ExperimentRunner::run_capture_trial(
    std::string_view backend_name, trace::TraceSource& source,
    const std::vector<trace::LabelInterval>& attacks,
    std::string capture_name, std::uint64_t trial_seed) {
  CANIDS_EXPECTS(!capture_name.empty());

  InstrumentedTrial result;
  result.backend = std::string(backend_name);
  result.capture = std::move(capture_name);
  result.trial_seed = trial_seed;
  result.attack_intervals = attacks;
  if (!attacks.empty()) {
    result.attack_start = attacks.front().start;
    result.attack_end = attacks.front().end;
    for (const trace::LabelInterval& interval : attacks) {
      result.attack_end = std::max(result.attack_end, interval.end);
    }
  }

  const std::unique_ptr<analysis::DetectorBackend> backend =
      make_backend(backend_name);
  // Recorded traffic carries no planned IDs, so there is no inference to
  // score.
  TrialScorer scorer(result, *backend, /*infer=*/false);

  // A frame counts as injected when it falls inside a labeled attack
  // interval: the label stands in for the attacker-node tag recorded
  // traffic cannot carry.
  const auto labeled = [&](util::TimeNs timestamp) {
    for (const trace::LabelInterval& interval : attacks) {
      if (interval.contains(timestamp)) return true;
    }
    return false;
  };

  // Timestamps are normalized to the capture's first frame before anything
  // sees them: real candump recordings carry absolute epoch times while
  // the sidecar labels are capture-relative, and window boundaries are
  // anchored to the first frame either way (util::WindowClock), so the
  // shift changes nothing for already-relative recordings beyond making
  // observations/latency read in capture time.
  std::optional<util::TimeNs> origin;
  for (;;) {
    const std::optional<can::TimedFrame> frame = source.next();
    if (!frame) break;
    if (!origin) origin = frame->timestamp;
    const util::TimeNs timestamp = frame->timestamp - *origin;
    scorer.on_frame(timestamp, frame->frame.id(), labeled(timestamp));
  }
  scorer.finish();
  return result;
}

std::shared_ptr<const baselines::MuterEntropyIds>
ExperimentRunner::muter_model() {
  if (muter_model_) return muter_model_;
  ++training_passes_;
  // One accumulator across every behaviour's clean drive, mirroring the
  // pre-redesign CMP8 calibration (seed salt 100 + behaviour index).
  std::vector<baselines::SymbolWindow> training;
  baselines::SymbolEntropyAccumulator accumulator(
      config_.pipeline.window.duration);
  for (std::uint64_t i = 0; i < trace::kAllBehaviors.size(); ++i) {
    for (const trace::LogRecord& record : vehicle_.record_trace(
             trace::kAllBehaviors[i], config_.baseline_training_per_behavior,
             100 + i)) {
      if (auto window =
              accumulator.add(record.timestamp, record.frame.id().raw())) {
        training.push_back(*window);
      }
    }
  }
  muter_model_ = std::make_shared<const baselines::MuterEntropyIds>(
      training, config_.muter);
  return muter_model_;
}

std::shared_ptr<const baselines::IntervalIds>
ExperimentRunner::interval_model() {
  if (interval_model_) return interval_model_;
  ++training_passes_;
  // Seed salt 200 + behaviour index, mirroring the pre-redesign CMP11
  // calibration.
  baselines::IntervalIds model(config_.interval);
  for (std::uint64_t i = 0; i < trace::kAllBehaviors.size(); ++i) {
    for (const trace::LogRecord& record : vehicle_.record_trace(
             trace::kAllBehaviors[i], config_.baseline_training_per_behavior,
             200 + i)) {
      model.train(record.timestamp, record.frame.id().raw());
    }
  }
  model.finish_training();
  interval_model_ =
      std::make_shared<const baselines::IntervalIds>(std::move(model));
  return interval_model_;
}

ExperimentRunner::BackendModelNeeds ExperimentRunner::backend_model_needs(
    std::string_view name) noexcept {
  BackendModelNeeds needs;
  needs.muter = name == "symbol-entropy" || name == "ensemble";
  needs.interval = name == "interval" || name == "ensemble";
  return needs;
}

std::unique_ptr<analysis::DetectorBackend> ExperimentRunner::make_backend(
    std::string_view name) {
  // Train only the models the named backend can use.
  analysis::DetectorOptions options;
  options.pipeline = config_.pipeline;
  options.golden = train_shared();
  options.id_pool = vehicle_.id_pool();
  options.muter = config_.muter;
  options.interval = config_.interval;
  const BackendModelNeeds needs = backend_model_needs(name);
  if (needs.muter) options.muter_model = muter_model();
  if (needs.interval) options.interval_model = interval_model();
  return analysis::make_detector(name, options);
}

}  // namespace canids::metrics
