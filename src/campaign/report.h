// Campaign results: per-trial rows, per-cell aggregates with ROC/AUC and
// window-granularity detection latency, and machine-readable emitters
// (CSV for spreadsheets/plots, JSON for pipelines). Aggregation is pure
// and sequential over the canonical trial order, so a report's bytes are
// identical no matter how many workers produced the trials.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/spec.h"
#include "metrics/confusion.h"
#include "metrics/experiment.h"

namespace canids::campaign {

/// One operating point of a cell's ROC curve: every window observation of
/// the cell re-scored with the detector threshold multiplied by `scale`
/// (1 = the backend's native sensitivity).
struct RocPoint {
  double scale = 0.0;
  metrics::WindowConfusion windows;
  double tpr = 0.0;
  double fpr = 0.0;
};

/// Trapezoidal area under the (fpr, tpr) points, anchored at (0,0)/(1,1).
[[nodiscard]] double auc_of(const std::vector<RocPoint>& points);

/// Aggregate of one campaign cell — detector × scenario-or-ID × rate,
/// across every seed.
struct CampaignCell {
  std::string detector;
  attacks::ScenarioKind kind{};
  std::optional<std::uint32_t> sweep_id;
  /// Capture-replay cells: the recorded file this cell scored (one trial
  /// per cell — a recording replays deterministically). Empty otherwise.
  std::string capture;
  double frequency_hz = 0.0;
  int trials = 0;

  metrics::FrameDetection frames;    ///< frame-level D_r accounting
  metrics::WindowConfusion windows;  ///< at the native threshold
  double detection_rate = 0.0;
  double tpr = 0.0;
  double fpr = 0.0;
  double precision = 0.0;
  double f1 = 0.0;
  std::optional<double> inference_accuracy;
  double mean_injection_rate_arbitration = 0.0;
  double mean_injection_rate_success = 0.0;
  double mean_bus_load = 0.0;

  /// Trials whose attack was flagged at all (the latency denominators).
  int detected_trials = 0;
  /// Mean window-granularity detection latency over detected trials.
  std::optional<double> mean_latency_seconds;

  std::vector<RocPoint> roc;  ///< spec's threshold_scales order
  double auc = 0.0;
};

struct CampaignReport {
  CampaignSpec spec;
  std::vector<metrics::InstrumentedTrial> trials;  ///< canonical plan order
  std::vector<CampaignCell> cells;                 ///< canonical cell order

  /// Table I rollup of one detector's synthetic scenario trials across
  /// every rate (single-ID and capture trials are skipped).
  [[nodiscard]] metrics::ScenarioSummary rollup(
      std::string_view detector, attacks::ScenarioKind kind) const;

  void write_trials_csv(std::ostream& out) const;
  void write_cells_csv(std::ostream& out) const;
  void write_roc_csv(std::ostream& out) const;
  void write_json(std::ostream& out) const;

  /// Write trials.csv, cells.csv, roc.csv, and report.json into `dir`
  /// (created if missing).
  void write_all(const std::filesystem::path& dir) const;
};

/// Aggregate trials (in canonical plan order, as CampaignRunner returns
/// them) into the full report. Pure and deterministic.
[[nodiscard]] CampaignReport make_report(
    CampaignSpec spec, std::vector<metrics::InstrumentedTrial> trials);

}  // namespace canids::campaign
