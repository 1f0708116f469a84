#include "baselines/muter_entropy.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/contracts.h"
#include "util/csv.h"

namespace canids::baselines {

double id_distribution_entropy(
    const std::unordered_map<std::uint32_t, std::uint64_t>& counts,
    std::uint64_t total) noexcept {
  if (total == 0) return 0.0;
  double entropy = 0.0;
  for (const auto& [id, count] : counts) {
    if (count == 0) continue;
    const double q =
        static_cast<double>(count) / static_cast<double>(total);
    entropy -= q * std::log2(q);
  }
  return entropy;
}

SymbolEntropyAccumulator::SymbolEntropyAccumulator(util::TimeNs window)
    : clock_(window) {
  CANIDS_EXPECTS(window > 0);
}

SymbolWindow SymbolEntropyAccumulator::snapshot(util::TimeNs start,
                                                util::TimeNs end) const {
  SymbolWindow out;
  out.start = start;
  out.end = end;
  out.frames = total_;
  out.entropy = id_distribution_entropy(counts_, total_);
  out.distinct_ids = counts_.size();
  return out;
}

std::optional<SymbolWindow> SymbolEntropyAccumulator::add(
    util::TimeNs timestamp, std::uint32_t id) {
  std::optional<SymbolWindow> emitted;
  if (const auto end = clock_.advance(timestamp)) {
    if (total_ > 0) emitted = snapshot(*end - clock_.duration(), *end);
    counts_.clear();
    total_ = 0;
  }
  ++counts_[id];
  ++total_;
  last_timestamp_ = timestamp;
  return emitted;
}

std::optional<SymbolWindow> SymbolEntropyAccumulator::flush() {
  if (total_ == 0) return std::nullopt;
  const SymbolWindow out = snapshot(clock_.start(), last_timestamp_);
  counts_.clear();
  total_ = 0;
  clock_.restart(last_timestamp_);
  return out;
}

std::size_t SymbolEntropyAccumulator::state_bytes() const noexcept {
  // One bucket per distinct identifier plus the hash-table overhead; we
  // charge only the payload (key + count) to be generous to the baseline.
  return counts_.size() *
             (sizeof(std::uint32_t) + sizeof(std::uint64_t)) +
         sizeof(total_);
}

MuterEntropyIds::MuterEntropyIds(const std::vector<SymbolWindow>& training,
                                 MuterConfig config)
    : config_(config) {
  CANIDS_EXPECTS_MSG(training.size() >= 2,
                     "MuterEntropyIds needs at least 2 training windows to "
                     "learn an entropy band, got " +
                         std::to_string(training.size()) +
                         " — record more clean traffic before training");
  CANIDS_EXPECTS(config_.alpha > 0.0);
  CANIDS_EXPECTS(config_.min_threshold >= 0.0);
  for (std::size_t i = 0; i < training.size(); ++i) {
    const SymbolWindow& w = training[i];
    CANIDS_EXPECTS_MSG(w.frames > 0,
                       "degenerate training window " + std::to_string(i) +
                           " has zero frames — empty windows carry no "
                           "entropy measurement");
    CANIDS_EXPECTS_MSG(
        std::isfinite(w.entropy) && w.entropy >= 0.0,
        "degenerate training window " + std::to_string(i) +
            " has invalid entropy " + std::to_string(w.entropy));
  }
  double sum = 0.0;
  double lo = training.front().entropy;
  double hi = training.front().entropy;
  for (const SymbolWindow& w : training) {
    sum += w.entropy;
    lo = std::min(lo, w.entropy);
    hi = std::max(hi, w.entropy);
  }
  mean_ = sum / static_cast<double>(training.size());
  threshold_ = std::max(config_.alpha * (hi - lo), config_.min_threshold);
}

MuterEntropyIds::MuterEntropyIds(MuterConfig config, double mean_entropy,
                                 double threshold)
    : config_(config), mean_(mean_entropy), threshold_(threshold) {
  CANIDS_EXPECTS(config_.alpha > 0.0);
  CANIDS_EXPECTS(config_.min_threshold >= 0.0);
  CANIDS_EXPECTS_MSG(std::isfinite(mean_) && mean_ >= 0.0,
                     "restored muter model has invalid mean entropy " +
                         std::to_string(mean_));
  CANIDS_EXPECTS_MSG(std::isfinite(threshold_) && threshold_ >= 0.0,
                     "restored muter model has invalid threshold " +
                         std::to_string(threshold_));
}

namespace {

std::string expect_keyed_line(std::istream& in, std::string_view key) {
  return util::read_keyed_line(in, key, "muter model");
}

double parse_value(const std::string& text, const char* what) {
  double value = 0.0;
  if (!util::parse_double_strict(text, value)) {
    throw std::runtime_error(std::string("muter model: malformed ") + what +
                             " '" + text + "'");
  }
  return value;
}

}  // namespace

void MuterEntropyIds::save(std::ostream& out) const {
  char line[128];
  out << "canids-muter-model v1\n";
  std::snprintf(line, sizeof line, "alpha %.17g\n", config_.alpha);
  out << line;
  std::snprintf(line, sizeof line, "min_threshold %.17g\n",
                config_.min_threshold);
  out << line;
  out << "min_window_frames " << config_.min_window_frames << "\n";
  std::snprintf(line, sizeof line, "mean_entropy %.17g\n", mean_);
  out << line;
  std::snprintf(line, sizeof line, "threshold %.17g\n", threshold_);
  out << line;
  if (!out) throw std::runtime_error("muter model: write failed");
}

MuterEntropyIds MuterEntropyIds::load(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || util::trim(line) != "canids-muter-model v1") {
    throw std::runtime_error("muter model: bad magic line");
  }
  MuterConfig config;
  config.alpha = parse_value(expect_keyed_line(in, "alpha"), "alpha");
  config.min_threshold =
      parse_value(expect_keyed_line(in, "min_threshold"), "min_threshold");
  const std::string frames_text = expect_keyed_line(in, "min_window_frames");
  // A negative value must not wrap through 2^64 into a detector whose
  // frame floor no window can ever reach (never evaluates, never alerts).
  if (!util::parse_digits_strict(frames_text, config.min_window_frames)) {
    throw std::runtime_error("muter model: malformed min_window_frames '" +
                             frames_text + "'");
  }
  const double mean =
      parse_value(expect_keyed_line(in, "mean_entropy"), "mean_entropy");
  const double threshold =
      parse_value(expect_keyed_line(in, "threshold"), "threshold");
  util::expect_stream_end(in, "muter model");
  // Range-check parseable-but-invalid values here, as stream errors — the
  // restore constructor's contract checks are for programmer errors, and
  // a corrupt file must surface as a clean parse failure at every catch
  // site that honors the documented std::runtime_error.
  if (config.alpha <= 0.0 || config.min_threshold < 0.0 || mean < 0.0 ||
      threshold < 0.0) {
    throw std::runtime_error("muter model: value out of range");
  }
  return MuterEntropyIds(config, mean, threshold);
}

MuterEntropyIds::Result MuterEntropyIds::evaluate(
    const SymbolWindow& window) const {
  Result result;
  result.entropy = window.entropy;
  if (window.frames < config_.min_window_frames) return result;
  result.evaluated = true;
  result.deviation = std::abs(window.entropy - mean_);
  result.threshold = threshold_;
  result.alert = result.deviation > threshold_;
  return result;
}

}  // namespace canids::baselines
