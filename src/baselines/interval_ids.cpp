#include "baselines/interval_ids.h"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/contracts.h"
#include "util/csv.h"

namespace canids::baselines {

IntervalIds::IntervalIds(IntervalConfig config) : config_(config) {
  CANIDS_EXPECTS(config_.fast_ratio > 0.0 && config_.fast_ratio < 1.0);
  CANIDS_EXPECTS(config_.violations_to_alert >= 1);
}

void IntervalIds::train(util::TimeNs timestamp, std::uint32_t id) {
  CANIDS_EXPECTS(!trained_);
  TrainState& state = training_[id];
  if (state.last_seen >= 0 && timestamp > state.last_seen) {
    state.interval_sum += timestamp - state.last_seen;
    ++state.intervals;
  }
  state.last_seen = timestamp;
}

void IntervalIds::finish_training() {
  CANIDS_EXPECTS(!trained_);
  for (const auto& [id, state] : training_) {
    if (state.intervals == 0) continue;  // one sighting: no period known
    RunState run;
    run.mean_interval =
        state.interval_sum / static_cast<std::int64_t>(state.intervals);
    learned_.emplace(id, run);
  }
  training_.clear();
  trained_ = true;
}

IntervalIds::FrameVerdict IntervalIds::observe(util::TimeNs timestamp,
                                               std::uint32_t id) {
  CANIDS_EXPECTS(trained_);
  FrameVerdict verdict;
  const auto it = learned_.find(id);
  if (it == learned_.end()) {
    verdict.known_id = false;
    ++unseen_frames_;
    if (config_.alert_on_unseen) {
      verdict.too_fast = true;
      window_alert_ = true;
    }
    return verdict;
  }
  RunState& state = it->second;
  if (state.last_seen >= 0) {
    const util::TimeNs interval = timestamp - state.last_seen;
    const auto fast_bound = static_cast<util::TimeNs>(
        config_.fast_ratio * static_cast<double>(state.mean_interval));
    if (interval < fast_bound) {
      verdict.too_fast = true;
      ++state.window_violations;
      if (state.window_violations > window_peak_violations_) {
        window_peak_violations_ = state.window_violations;
      }
      if (state.window_violations >= config_.violations_to_alert) {
        window_alert_ = true;
      }
    }
  }
  state.last_seen = timestamp;
  return verdict;
}

bool IntervalIds::window_alert_and_reset() {
  const bool alert = window_alert_;
  window_alert_ = false;
  window_peak_violations_ = 0;
  for (auto& [id, state] : learned_) state.window_violations = 0;
  return alert;
}

void IntervalIds::save(std::ostream& out) const {
  CANIDS_EXPECTS_MSG(trained_,
                     "only a trained interval model can be persisted — call "
                     "finish_training() first");
  char line[128];
  out << "canids-interval-model v1\n";
  std::snprintf(line, sizeof line, "fast_ratio %.17g\n", config_.fast_ratio);
  out << line;
  out << "violations_to_alert " << config_.violations_to_alert << "\n";
  out << "alert_on_unseen " << (config_.alert_on_unseen ? 1 : 0) << "\n";
  out << "ids " << learned_.size() << "\n";
  std::vector<std::pair<std::uint32_t, util::TimeNs>> rows;
  rows.reserve(learned_.size());
  for (const auto& [id, state] : learned_) {
    rows.emplace_back(id, state.mean_interval);
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& [id, mean_interval] : rows) {
    out << id << " " << mean_interval << "\n";
  }
  if (!out) throw std::runtime_error("interval model: write failed");
}

IntervalIds IntervalIds::load(std::istream& in) {
  const auto bad = [](const std::string& what) -> std::runtime_error {
    return std::runtime_error("interval model: " + what);
  };
  std::string line;
  if (!std::getline(in, line) ||
      util::trim(line) != "canids-interval-model v1") {
    throw bad("bad magic line");
  }

  // Headers appear in the exact order save() writes them.
  IntervalConfig config;
  std::size_t id_count = 0;
  const auto read_header = [&](std::string_view key) {
    return util::read_keyed_line(in, key, "interval model");
  };
  // Integer fields are plain digits, so a sign can never wrap a value.
  const std::string ratio = read_header("fast_ratio");
  if (!util::parse_double_strict(ratio, config.fast_ratio)) {
    throw bad("malformed fast_ratio '" + ratio + "'");
  }
  const std::string violations = read_header("violations_to_alert");
  if (!util::parse_digits_strict(violations, config.violations_to_alert)) {
    throw bad("malformed violations_to_alert '" + violations + "'");
  }
  const std::string unseen = read_header("alert_on_unseen");
  if (unseen != "0" && unseen != "1") {
    throw bad("malformed alert_on_unseen '" + unseen + "'");
  }
  config.alert_on_unseen = unseen == "1";
  const std::string count = read_header("ids");
  if (!util::parse_digits_strict(count, id_count)) {
    throw bad("malformed id count '" + count + "'");
  }
  // Parseable-but-invalid config is a stream error (clean runtime_error),
  // not a programmer error — don't let the constructor's contract checks
  // fire on a corrupt file.
  if (!(config.fast_ratio > 0.0 && config.fast_ratio < 1.0) ||
      config.violations_to_alert < 1) {
    throw bad("config value out of range");
  }

  IntervalIds model(config);
  for (std::size_t row = 0; row < id_count; ++row) {
    if (!std::getline(in, line)) {
      throw bad("truncated stream: expected " + std::to_string(id_count) +
                " id rows, got " + std::to_string(row));
    }
    std::istringstream ls(line);
    std::string id_text;
    std::string interval_text;
    std::string extra;
    std::uint32_t id = 0;
    RunState state;
    ls >> id_text >> interval_text;
    if (!ls || (ls >> extra) || !util::parse_digits_strict(id_text, id) ||
        !util::parse_digits_strict(interval_text, state.mean_interval) ||
        state.mean_interval <= 0) {
      throw bad("malformed id row '" + line + "'");
    }
    if (!model.learned_.emplace(id, state).second) {
      throw bad("duplicate id row '" + line + "'");
    }
  }
  util::expect_stream_end(in, "interval model");
  model.trained_ = true;
  return model;
}

std::size_t IntervalIds::state_bytes() const noexcept {
  return learned_.size() * (sizeof(std::uint32_t) + sizeof(RunState));
}

}  // namespace canids::baselines
