#include "analysis/backends.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/registry.h"
#include "ids/bit_counters.h"
#include "util/contracts.h"

namespace canids::analysis {

// ---- BitEntropyBackend ------------------------------------------------------

namespace {

/// The config one instance runs: without an ID pool nothing reads the pair
/// counters (verdicts carry no snapshot), so they are not kept.
[[nodiscard]] ids::PipelineConfig running_config(
    ids::PipelineConfig config, const std::vector<std::uint32_t>& id_pool) {
  config.window.track_pairs = config.window.track_pairs && !id_pool.empty();
  return config;
}

}  // namespace

BitEntropyBackend::BitEntropyBackend(
    std::shared_ptr<const ids::GoldenTemplate> golden,
    std::vector<std::uint32_t> id_pool, ids::PipelineConfig config)
    : golden_(std::move(golden)),
      id_pool_(std::move(id_pool)),
      config_(config),
      pipeline_(golden_, id_pool_, running_config(config_, id_pool_)) {
  CANIDS_EXPECTS(golden_ != nullptr);
}

WindowVerdict BitEntropyBackend::verdict_of(const ids::WindowReport& report) {
  WindowVerdict verdict;
  verdict.start = report.snapshot.start;
  verdict.end = report.snapshot.end;
  verdict.frames = report.snapshot.frames;
  verdict.evaluated = report.detection.evaluated;
  verdict.alert = report.detection.alert;
  // Decision variable: the bit whose deviation is worst *relative to its
  // own threshold* — the native alert fires when any bit exceeds its
  // threshold, so the max deviation/threshold ratio tops 1 exactly when
  // the window alerts (a max-raw-deviation bit could sit inside a wide
  // band while a quieter bit breaks a narrow one). Ratios are compared by
  // cross-multiplication so zero thresholds order correctly.
  for (const ids::BitDeviation& bit : report.detection.bits) {
    const double lhs = bit.deviation * verdict.threshold;
    const double rhs = verdict.metric * bit.threshold;
    if (lhs > rhs || (lhs == rhs && bit.deviation > verdict.metric)) {
      verdict.metric = bit.deviation;
      verdict.threshold = bit.threshold;
    }
  }
  if (verdict.alert) {
    Alert detail;
    detail.alerted_bits = report.detection.alerted_bits;
    if (report.inference) {
      detail.ranked_candidates = report.inference->ranked_candidates;
    }
    verdict.detail = std::move(detail);
  }
  ++counters_.windows_closed;
  if (verdict.evaluated) ++counters_.windows_evaluated;
  if (verdict.alert) ++counters_.alerts;
  return verdict;
}

std::optional<WindowVerdict> BitEntropyBackend::on_frame(
    util::TimeNs timestamp, const can::CanId& id) {
  ++counters_.frames;
  if (id.width() != golden_->width) {
    // E.g. a 29-bit extended identifier against the 11-bit template: the
    // bit counters cannot represent it, so surface it as dropped instead
    // of silently folding it into the wrong bit positions. Its timestamp
    // still drives the window clock, keeping this backend's window
    // boundaries aligned with detectors that consume every frame (the
    // ensemble composes on that invariant).
    ++counters_.dropped_frames;
    if (auto report = pipeline_.on_gap(timestamp)) {
      return verdict_of(*report);
    }
    return std::nullopt;
  }
  if (auto report = pipeline_.on_frame(timestamp, id)) {
    return verdict_of(*report);
  }
  return std::nullopt;
}

void BitEntropyBackend::on_frames(const can::TimedId* frames,
                                  std::size_t count,
                                  std::vector<WindowVerdict>& out) {
  std::size_t i = 0;
  while (i < count) {
    if (frames[i].id.width() != golden_->width) {
      // Same contract as on_frame: the frame is dropped but its timestamp
      // still drives the window clock (ensemble alignment invariant).
      ++counters_.frames;
      ++counters_.dropped_frames;
      if (auto report = pipeline_.on_gap(frames[i].timestamp)) {
        out.push_back(verdict_of(*report));
      }
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < count && frames[j].id.width() == golden_->width) ++j;
    counters_.frames += j - i;
    report_scratch_.clear();
    pipeline_.on_frames(frames + i, j - i, report_scratch_);
    for (const ids::WindowReport& report : report_scratch_) {
      out.push_back(verdict_of(report));
    }
    i = j;
  }
  report_scratch_.clear();
}

void BitEntropyBackend::rebind_models(const ModelRefs& models) {
  if (!models.golden) return;
  // rebind() validates the width before mutating anything, so a throw
  // leaves both the pipeline and golden_ untouched.
  pipeline_.rebind(models.golden);
  golden_ = models.golden;
}

std::optional<WindowVerdict> BitEntropyBackend::finish() {
  if (auto report = pipeline_.finish()) {
    return verdict_of(*report);
  }
  return std::nullopt;
}

DetectorInfo BitEntropyBackend::describe() const {
  DetectorInfo info = builtin_info(Builtin::kBitEntropy);
  // What this instance counts, not what was requested.
  const bool pairs = pipeline_.config().window.track_pairs;
  if (!pairs) info.state_growth = "O(1): 11 bit counters";
  info.supports_inference = pipeline_.inference_enabled();
  info.state_bytes = pairs ? ids::PairCounters::state_bytes()
                           : ids::BitCounters::state_bytes();
  info.trained = true;
  return info;
}

std::unique_ptr<DetectorBackend> BitEntropyBackend::clone_for_stream(
    std::vector<std::uint32_t> id_pool) const {
  return std::make_unique<BitEntropyBackend>(
      golden_, id_pool.empty() ? id_pool_ : std::move(id_pool), config_);
}

// ---- SymbolEntropyBackend ---------------------------------------------------

SymbolEntropyBackend::SymbolEntropyBackend(
    std::shared_ptr<const baselines::MuterEntropyIds> model,
    baselines::MuterConfig config, util::TimeNs window_duration,
    std::size_t calibration_windows)
    : pretrained_(std::move(model)),
      model_(pretrained_),
      config_(config),
      window_duration_(window_duration),
      calibration_windows_(calibration_windows),
      accumulator_(window_duration) {
  CANIDS_EXPECTS(window_duration_ > 0);
  CANIDS_EXPECTS_MSG(pretrained_ != nullptr || calibration_windows_ >= 2,
                     "self-calibration needs at least 2 lead-in windows");
}

WindowVerdict SymbolEntropyBackend::judge(
    const baselines::SymbolWindow& window) {
  WindowVerdict verdict;
  verdict.start = window.start;
  verdict.end = window.end;
  verdict.frames = window.frames;
  if (!model_) {
    // Still calibrating: this window becomes training data, not a verdict.
    training_.push_back(window);
    if (training_.size() >= calibration_windows_) {
      model_ = std::make_shared<const baselines::MuterEntropyIds>(training_,
                                                                  config_);
      training_.clear();
      training_.shrink_to_fit();
    }
  } else {
    const baselines::MuterEntropyIds::Result result =
        model_->evaluate(window);
    verdict.evaluated = result.evaluated;
    verdict.alert = result.alert;
    verdict.metric = result.deviation;
    verdict.threshold = result.threshold;
    if (verdict.alert) verdict.detail.emplace();
  }
  ++counters_.windows_closed;
  if (verdict.evaluated) ++counters_.windows_evaluated;
  if (verdict.alert) ++counters_.alerts;
  return verdict;
}

std::optional<WindowVerdict> SymbolEntropyBackend::on_frame(
    util::TimeNs timestamp, const can::CanId& id) {
  ++counters_.frames;
  if (auto window = accumulator_.add(timestamp, id.raw())) {
    return judge(*window);
  }
  return std::nullopt;
}

void SymbolEntropyBackend::rebind_models(const ModelRefs& models) {
  if (!models.muter) return;
  pretrained_ = models.muter;
  model_ = pretrained_;
  // Any in-progress self-calibration is abandoned; the accumulator's open
  // window carries over and is judged against the new band at close.
  training_.clear();
  training_.shrink_to_fit();
}

std::optional<WindowVerdict> SymbolEntropyBackend::finish() {
  if (auto window = accumulator_.flush()) {
    return judge(*window);
  }
  return std::nullopt;
}

DetectorInfo SymbolEntropyBackend::describe() const {
  DetectorInfo info = builtin_info(Builtin::kSymbolEntropy);
  info.state_bytes = accumulator_.state_bytes();
  info.trained = model_ != nullptr;
  return info;
}

std::unique_ptr<DetectorBackend> SymbolEntropyBackend::clone_for_stream(
    std::vector<std::uint32_t> /*id_pool*/) const {
  // Pretrained model is shared; a self-calibrating backend's clones each
  // calibrate on their own stream (per-vehicle entropy bands).
  return std::make_unique<SymbolEntropyBackend>(
      pretrained_, config_, window_duration_, calibration_windows_);
}

// ---- IntervalBackend --------------------------------------------------------

IntervalBackend::IntervalBackend(
    std::shared_ptr<const baselines::IntervalIds> model,
    baselines::IntervalConfig config, util::TimeNs window_duration,
    std::size_t calibration_windows)
    : pretrained_(std::move(model)),
      config_(config),
      window_duration_(window_duration),
      calibration_windows_(calibration_windows),
      detector_(pretrained_ ? *pretrained_ : baselines::IntervalIds(config)),
      clock_(window_duration) {
  CANIDS_EXPECTS(window_duration_ > 0);
  if (pretrained_) {
    CANIDS_EXPECTS_MSG(pretrained_->trained(),
                       "pretrained interval model must be frozen with "
                       "finish_training() before use");
  } else {
    CANIDS_EXPECTS_MSG(calibration_windows_ >= 1,
                       "self-calibration needs at least 1 lead-in window");
  }
}

WindowVerdict IntervalBackend::close_window(util::TimeNs start,
                                            util::TimeNs end) {
  WindowVerdict verdict;
  verdict.start = start;
  verdict.end = end;
  verdict.frames = frames_in_window_;
  if (!detector_.trained()) {
    // Calibration window: learned periods accumulate, nothing is judged.
    if (++windows_trained_ >= calibration_windows_) {
      detector_.finish_training();
    }
  } else {
    verdict.evaluated = true;
    verdict.metric = detector_.window_peak_violations();
    verdict.threshold = config_.violations_to_alert;
    verdict.alert = detector_.window_alert_and_reset();
    if (verdict.alert) verdict.detail.emplace();
  }
  frames_in_window_ = 0;
  ++counters_.windows_closed;
  if (verdict.evaluated) ++counters_.windows_evaluated;
  if (verdict.alert) ++counters_.alerts;
  return verdict;
}

std::optional<WindowVerdict> IntervalBackend::on_frame(util::TimeNs timestamp,
                                                       const can::CanId& id) {
  ++counters_.frames;
  std::optional<WindowVerdict> emitted;
  // util::WindowClock is the alignment rule every backend shares, so all
  // windows close on the same frames (the ensemble depends on this).
  if (const auto end = clock_.advance(timestamp)) {
    if (frames_in_window_ > 0) {
      emitted = close_window(*end - window_duration_, *end);
    }
  }
  if (detector_.trained()) {
    (void)detector_.observe(timestamp, id.raw());
  } else {
    detector_.train(timestamp, id.raw());
  }
  ++frames_in_window_;
  last_timestamp_ = timestamp;
  return emitted;
}

void IntervalBackend::rebind_models(const ModelRefs& models) {
  if (!models.interval) return;
  if (!models.interval->trained()) {
    throw std::invalid_argument(
        "interval: hot-reload model must be frozen with finish_training()");
  }
  pretrained_ = models.interval;
  detector_ = *pretrained_;
  windows_trained_ = 0;
  // clock_/frames_in_window_/last_timestamp_/counters_ carry over: the open
  // window continues, with violation counting restarted against the new
  // learned periods (per-ID arrival state lives inside the detector).
}

std::optional<WindowVerdict> IntervalBackend::finish() {
  if (!clock_.started() || frames_in_window_ == 0) return std::nullopt;
  return close_window(clock_.start(), last_timestamp_);
}

DetectorInfo IntervalBackend::describe() const {
  DetectorInfo info = builtin_info(Builtin::kInterval);
  info.state_bytes = detector_.state_bytes();
  info.trained = detector_.trained();
  return info;
}

std::unique_ptr<DetectorBackend> IntervalBackend::clone_for_stream(
    std::vector<std::uint32_t> /*id_pool*/) const {
  return std::make_unique<IntervalBackend>(pretrained_, config_,
                                           window_duration_,
                                           calibration_windows_);
}

// ---- EnsembleDetector -------------------------------------------------------

EnsembleDetector::EnsembleDetector(
    std::vector<std::unique_ptr<DetectorBackend>> members)
    : members_(std::move(members)) {
  CANIDS_EXPECTS_MSG(!members_.empty(),
                     "an ensemble needs at least one member detector");
  for (const auto& member : members_) CANIDS_EXPECTS(member != nullptr);
}

WindowVerdict EnsembleDetector::combine(
    const std::vector<std::pair<std::string, WindowVerdict>>& emitted) {
  // Window bounds come from the first member that closed a window; members
  // share one window duration, so bounds agree (frame counts may differ by
  // each member's dropped frames).
  WindowVerdict verdict;
  verdict.start = emitted.front().second.start;
  verdict.end = emitted.front().second.end;
  verdict.frames = emitted.front().second.frames;

  std::size_t evaluated = 0;
  std::size_t votes = 0;
  Alert detail;
  for (const auto& [name, member_verdict] : emitted) {
    if (!member_verdict.evaluated) continue;
    ++evaluated;
    if (!member_verdict.alert) continue;
    ++votes;
    detail.voters.push_back(name);
    if (member_verdict.detail) {
      for (int bit : member_verdict.detail->alerted_bits) {
        detail.alerted_bits.push_back(bit);
      }
      for (std::uint32_t id : member_verdict.detail->ranked_candidates) {
        detail.ranked_candidates.push_back(id);
      }
    }
  }

  const std::size_t quorum = evaluated / 2 + 1;  // majority of the judges
  verdict.evaluated = evaluated > 0;
  verdict.metric = static_cast<double>(votes);
  verdict.threshold = static_cast<double>(quorum);
  verdict.alert = verdict.evaluated && votes >= quorum;
  if (verdict.alert) verdict.detail = std::move(detail);

  ++counters_.windows_closed;
  if (verdict.evaluated) ++counters_.windows_evaluated;
  if (verdict.alert) ++counters_.alerts;
  return verdict;
}

std::optional<WindowVerdict> EnsembleDetector::on_frame(util::TimeNs timestamp,
                                                        const can::CanId& id) {
  ++counters_.frames;
  std::vector<std::pair<std::string, WindowVerdict>> emitted;
  std::uint64_t dropped = 0;
  for (const auto& member : members_) {
    if (auto verdict = member->on_frame(timestamp, id)) {
      emitted.emplace_back(member->describe().name, std::move(*verdict));
    }
    // Members all see the same frames, so the worst-off member's drop
    // count is the number of frames not every detector could judge —
    // surfaced instead of hidden behind the ensemble's own counters.
    dropped = std::max(dropped, member->counters().dropped_frames);
  }
  counters_.dropped_frames = dropped;
  if (emitted.empty()) return std::nullopt;
  return combine(emitted);
}

void EnsembleDetector::rebind_models(const ModelRefs& models) {
  // Dry-run on throwaway clones first (cheap: trained state is shared,
  // runtime state starts pristine), so an incompatible model throws
  // before any live member has been touched.
  for (const auto& member : members_) {
    member->clone_for_stream()->rebind_models(models);
  }
  for (const auto& member : members_) member->rebind_models(models);
}

std::optional<WindowVerdict> EnsembleDetector::finish() {
  std::vector<std::pair<std::string, WindowVerdict>> emitted;
  for (const auto& member : members_) {
    if (auto verdict = member->finish()) {
      emitted.emplace_back(member->describe().name, std::move(*verdict));
    }
  }
  if (emitted.empty()) return std::nullopt;
  return combine(emitted);
}

DetectorInfo EnsembleDetector::describe() const {
  DetectorInfo info = builtin_info(Builtin::kEnsemble);
  info.state_growth += " (vote of " + std::to_string(members_.size()) + ")";
  info.supports_inference = false;
  info.trained = true;
  for (const auto& member : members_) {
    const DetectorInfo member_info = member->describe();
    info.supports_inference |= member_info.supports_inference;
    info.state_bytes += member_info.state_bytes;
    info.trained &= member_info.trained;
  }
  return info;
}

std::unique_ptr<DetectorBackend> EnsembleDetector::clone_for_stream(
    std::vector<std::uint32_t> id_pool) const {
  std::vector<std::unique_ptr<DetectorBackend>> clones;
  clones.reserve(members_.size());
  for (const auto& member : members_) {
    clones.push_back(member->clone_for_stream(id_pool));
  }
  return std::make_unique<EnsembleDetector>(std::move(clones));
}

}  // namespace canids::analysis
