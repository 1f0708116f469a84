#include "campaign/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/json.h"

namespace canids::campaign {

namespace {

std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

std::string fmt_optional(const std::optional<double>& value) {
  return value ? fmt(*value) : std::string();
}

std::string hex_id(std::uint32_t id) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "0x%03X", id);
  return buffer;
}

std::string sweep_field(const std::optional<std::uint32_t>& id) {
  return id ? hex_id(*id) : std::string();
}

/// Scenario column value: capture trials have no synthetic scenario.
std::string scenario_field(const std::string& capture,
                           attacks::ScenarioKind kind) {
  return capture.empty() ? std::string(scenario_token(kind))
                         : std::string("capture");
}

double f1_of(double precision, double recall) {
  const double denom = precision + recall;
  return denom > 0.0 ? 2.0 * precision * recall / denom : 0.0;
}

std::string json_trial(const metrics::InstrumentedTrial& trial) {
  std::ostringstream out;
  out << "{\"detector\": " << util::json_string(trial.backend)
      << ", \"scenario\": \""
      << scenario_field(trial.capture, trial.kind) << "\"";
  if (!trial.capture.empty()) {
    out << ", \"capture\": " << util::json_string(trial.capture);
  }
  if (trial.single_id) out << ", \"sweep_id\": " << *trial.single_id;
  out << ", \"rate_hz\": " << fmt(trial.frequency_hz)
      << ", \"trial_seed\": " << trial.trial_seed
      << ", \"injected_frames\": " << trial.frames.injected_frames
      << ", \"detected_frames\": " << trial.frames.detected_frames
      << ", \"detection_rate\": " << fmt(trial.detection_rate)
      << ", \"tp\": " << trial.windows.true_positive
      << ", \"fp\": " << trial.windows.false_positive
      << ", \"tn\": " << trial.windows.true_negative
      << ", \"fn\": " << trial.windows.false_negative
      << ", \"inference_accuracy\": "
      << (trial.inference_accuracy ? fmt(*trial.inference_accuracy) : "null")
      << ", \"injection_rate_arbitration\": "
      << fmt(trial.injection_rate_arbitration)
      << ", \"injection_rate_success\": " << fmt(trial.injection_rate_success)
      << ", \"bus_load\": " << fmt(trial.bus_load);
  const auto latency = trial.detection_latency();
  out << ", \"detection_latency_s\": "
      << (latency ? fmt(util::to_seconds(*latency)) : "null") << "}";
  return out.str();
}

std::string json_cell(const CampaignCell& cell) {
  std::ostringstream out;
  out << "{\"detector\": " << util::json_string(cell.detector)
      << ", \"scenario\": \""
      << scenario_field(cell.capture, cell.kind) << "\"";
  if (!cell.capture.empty()) {
    out << ", \"capture\": " << util::json_string(cell.capture);
  }
  if (cell.sweep_id) out << ", \"sweep_id\": " << *cell.sweep_id;
  out << ", \"rate_hz\": " << fmt(cell.frequency_hz)
      << ", \"trials\": " << cell.trials
      << ", \"detection_rate\": " << fmt(cell.detection_rate)
      << ", \"tpr\": " << fmt(cell.tpr) << ", \"fpr\": " << fmt(cell.fpr)
      << ", \"precision\": " << fmt(cell.precision)
      << ", \"f1\": " << fmt(cell.f1) << ", \"inference_accuracy\": "
      << (cell.inference_accuracy ? fmt(*cell.inference_accuracy) : "null")
      << ", \"mean_injection_rate_arbitration\": "
      << fmt(cell.mean_injection_rate_arbitration)
      << ", \"mean_injection_rate_success\": "
      << fmt(cell.mean_injection_rate_success)
      << ", \"mean_bus_load\": " << fmt(cell.mean_bus_load)
      << ", \"detected_trials\": " << cell.detected_trials
      << ", \"mean_detection_latency_s\": "
      << (cell.mean_latency_seconds ? fmt(*cell.mean_latency_seconds)
                                    : "null")
      << ", \"auc\": " << fmt(cell.auc) << ", \"roc\": [";
  for (std::size_t i = 0; i < cell.roc.size(); ++i) {
    const RocPoint& point = cell.roc[i];
    out << (i ? ", " : "") << "{\"scale\": " << fmt(point.scale)
        << ", \"tpr\": " << fmt(point.tpr) << ", \"fpr\": " << fmt(point.fpr)
        << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace

double auc_of(const std::vector<RocPoint>& points) {
  std::vector<std::pair<double, double>> curve;
  curve.reserve(points.size() + 2);
  curve.emplace_back(0.0, 0.0);
  curve.emplace_back(1.0, 1.0);
  for (const RocPoint& point : points) {
    curve.emplace_back(point.fpr, point.tpr);
  }
  std::sort(curve.begin(), curve.end());
  double auc = 0.0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    auc += (curve[i].first - curve[i - 1].first) *
           (curve[i].second + curve[i - 1].second) / 2.0;
  }
  return auc;
}

CampaignReport make_report(CampaignSpec spec,
                           std::vector<metrics::InstrumentedTrial> trials) {
  const std::vector<TrialPlan> plan = spec.plan();
  if (plan.size() != trials.size()) {
    throw std::invalid_argument("make_report: trial count does not match "
                                "the spec's plan");
  }

  CampaignReport report;
  report.spec = std::move(spec);
  report.trials = std::move(trials);

  // A synthetic cell aggregates the seeds of one grid coordinate; a
  // capture replays deterministically, so each capture trial is its own
  // cell.
  const std::size_t per_cell =
      report.spec.capture_mode()
          ? 1
          : static_cast<std::size_t>(report.spec.seeds);
  for (std::size_t base = 0; base < plan.size(); base += per_cell) {
    const TrialPlan& head = plan[base];
    CampaignCell cell;
    cell.detector = head.detector;
    cell.kind = head.kind;
    cell.sweep_id = head.sweep_id;
    cell.capture = head.capture;
    cell.frequency_hz = head.frequency_hz;
    cell.trials = static_cast<int>(per_cell);

    double latency_sum_seconds = 0.0;
    double inference_hit_sum = 0.0;
    std::uint64_t inference_windows = 0;

    for (std::size_t t = base; t < base + per_cell; ++t) {
      const metrics::InstrumentedTrial& trial = report.trials[t];
      cell.frames += trial.frames;
      cell.windows += trial.windows;
      inference_hit_sum += trial.inference_hit_sum;
      inference_windows += trial.inference_windows;
      cell.mean_injection_rate_arbitration +=
          trial.injection_rate_arbitration / static_cast<double>(per_cell);
      cell.mean_injection_rate_success +=
          trial.injection_rate_success / static_cast<double>(per_cell);
      cell.mean_bus_load += trial.bus_load / static_cast<double>(per_cell);
      if (const auto latency = trial.detection_latency()) {
        ++cell.detected_trials;
        latency_sum_seconds += util::to_seconds(*latency);
      }
    }

    cell.detection_rate = cell.frames.detection_rate();
    cell.tpr = cell.windows.true_positive_rate();
    cell.fpr = cell.windows.false_positive_rate();
    cell.precision = cell.windows.precision();
    cell.f1 = f1_of(cell.precision, cell.tpr);
    if (inference_windows > 0) {
      cell.inference_accuracy =
          inference_hit_sum / static_cast<double>(inference_windows);
    }
    if (cell.detected_trials > 0) {
      cell.mean_latency_seconds =
          latency_sum_seconds / static_cast<double>(cell.detected_trials);
    }

    // The ROC sweep: re-judge every evaluated window of the cell at each
    // sensitivity multiplier using the recorded threshold-free score.
    cell.roc.reserve(report.spec.threshold_scales.size());
    for (const double scale : report.spec.threshold_scales) {
      RocPoint point;
      point.scale = scale;
      for (std::size_t t = base; t < base + per_cell; ++t) {
        const metrics::InstrumentedTrial& trial = report.trials[t];
        for (const metrics::WindowObservation& window : trial.observations) {
          if (!window.evaluated) continue;
          point.windows.record(
              trial.overlaps_attack(window.start, window.end),
              window.score() >= scale);
        }
      }
      point.tpr = point.windows.true_positive_rate();
      point.fpr = point.windows.false_positive_rate();
      cell.roc.push_back(point);
    }
    cell.auc = auc_of(cell.roc);

    report.cells.push_back(std::move(cell));
  }
  return report;
}

metrics::ScenarioSummary CampaignReport::rollup(
    std::string_view detector, attacks::ScenarioKind kind) const {
  std::vector<metrics::InstrumentedTrial> selected;
  for (const metrics::InstrumentedTrial& trial : trials) {
    if (trial.backend == detector && trial.kind == kind && !trial.single_id &&
        trial.capture.empty()) {
      selected.push_back(trial);
    }
  }
  return metrics::summarize(kind, selected);
}

void CampaignReport::write_trials_csv(std::ostream& out) const {
  util::CsvWriter csv(
      out, {"detector", "scenario", "capture", "sweep_id", "rate_hz",
            "seed_index", "trial_seed", "injected_frames", "detected_frames",
            "detection_rate", "tp", "fp", "tn", "fn", "tpr", "fpr",
            "inference_accuracy", "injection_rate_arbitration",
            "injection_rate_success", "injected_transmitted", "bus_load",
            "windows_closed", "windows_evaluated", "alerts",
            "detection_latency_s"});
  const std::size_t per_cell =
      spec.capture_mode() ? 1 : static_cast<std::size_t>(spec.seeds);
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const metrics::InstrumentedTrial& trial = trials[i];
    const auto latency = trial.detection_latency();
    csv.write_row(
        {trial.backend, scenario_field(trial.capture, trial.kind),
         trial.capture, sweep_field(trial.single_id),
         fmt(trial.frequency_hz),
         std::to_string(i % per_cell), std::to_string(trial.trial_seed),
         std::to_string(trial.frames.injected_frames),
         std::to_string(trial.frames.detected_frames),
         fmt(trial.detection_rate),
         std::to_string(trial.windows.true_positive),
         std::to_string(trial.windows.false_positive),
         std::to_string(trial.windows.true_negative),
         std::to_string(trial.windows.false_negative),
         fmt(trial.windows.true_positive_rate()),
         fmt(trial.windows.false_positive_rate()),
         fmt_optional(trial.inference_accuracy),
         fmt(trial.injection_rate_arbitration),
         fmt(trial.injection_rate_success),
         std::to_string(trial.injected_transmitted), fmt(trial.bus_load),
         std::to_string(trial.counters.windows_closed),
         std::to_string(trial.counters.windows_evaluated),
         std::to_string(trial.counters.alerts),
         latency ? fmt(util::to_seconds(*latency)) : std::string()});
  }
}

void CampaignReport::write_cells_csv(std::ostream& out) const {
  util::CsvWriter csv(
      out, {"detector", "scenario", "capture", "sweep_id", "rate_hz",
            "trials", "detection_rate", "tpr", "fpr", "precision", "f1",
            "inference_accuracy", "mean_injection_rate_arbitration",
            "mean_injection_rate_success", "mean_bus_load", "detected_trials",
            "mean_detection_latency_s", "auc"});
  for (const CampaignCell& cell : cells) {
    csv.write_row({cell.detector, scenario_field(cell.capture, cell.kind),
                   cell.capture,
                   sweep_field(cell.sweep_id), fmt(cell.frequency_hz),
                   std::to_string(cell.trials), fmt(cell.detection_rate),
                   fmt(cell.tpr), fmt(cell.fpr), fmt(cell.precision),
                   fmt(cell.f1), fmt_optional(cell.inference_accuracy),
                   fmt(cell.mean_injection_rate_arbitration),
                   fmt(cell.mean_injection_rate_success),
                   fmt(cell.mean_bus_load),
                   std::to_string(cell.detected_trials),
                   fmt_optional(cell.mean_latency_seconds), fmt(cell.auc)});
  }
}

void CampaignReport::write_roc_csv(std::ostream& out) const {
  util::CsvWriter csv(out, {"detector", "scenario", "capture", "sweep_id",
                            "rate_hz", "scale", "tp", "fp", "tn", "fn",
                            "tpr", "fpr"});
  for (const CampaignCell& cell : cells) {
    for (const RocPoint& point : cell.roc) {
      csv.write_row({cell.detector, scenario_field(cell.capture, cell.kind),
                     cell.capture,
                     sweep_field(cell.sweep_id), fmt(cell.frequency_hz),
                     fmt(point.scale),
                     std::to_string(point.windows.true_positive),
                     std::to_string(point.windows.false_positive),
                     std::to_string(point.windows.true_negative),
                     std::to_string(point.windows.false_negative),
                     fmt(point.tpr), fmt(point.fpr)});
    }
  }
}

void CampaignReport::write_json(std::ostream& out) const {
  out << "{\n\"spec\": " << spec.to_json() << ",\n\"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out << (i ? ",\n" : "") << json_cell(cells[i]);
  }
  out << "\n],\n\"trials\": [\n";
  for (std::size_t i = 0; i < trials.size(); ++i) {
    out << (i ? ",\n" : "") << json_trial(trials[i]);
  }
  out << "\n]\n}\n";
}

void CampaignReport::write_all(const std::filesystem::path& dir) const {
  std::filesystem::create_directories(dir);
  using Writer = void (CampaignReport::*)(std::ostream&) const;
  const auto write = [&](const char* file, Writer writer) {
    const std::filesystem::path path = dir / file;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path.string());
    (this->*writer)(out);
    // Flush first: a full device fails the write, not the open.
    out.flush();
    if (!out) throw std::runtime_error(path.string() + ": write failed");
  };
  write("trials.csv", &CampaignReport::write_trials_csv);
  write("cells.csv", &CampaignReport::write_cells_csv);
  write("roc.csv", &CampaignReport::write_roc_csv);
  write("report.json", &CampaignReport::write_json);
}

}  // namespace canids::campaign
