#include "campaign/spec.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "can/frame.h"
#include "util/json.h"
#include "util/time.h"

namespace canids::campaign {

namespace {

using util::JsonValue;

std::string json_number(double value) {
  if (value == std::floor(value) && std::abs(value) < 9.0e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

[[noreturn]] void bad_key(const std::string& key, const char* expected) {
  throw std::invalid_argument("campaign spec: key '" + key + "' expects " +
                              expected);
}

/// `v` as T (see util::JsonValue::get), or bad_key.
template <class T>
T as(const std::string& key, const JsonValue& v, const char* expected) {
  std::optional<T> value = v.get<T>();
  if (!value) bad_key(key, expected);
  return std::move(*value);
}

double as_number(const std::string& key, const JsonValue& v) {
  return as<double>(key, v, "a number");
}

int as_int(const std::string& key, const JsonValue& v) {
  const double n = as_number(key, v);
  if (n != std::floor(n) || n < INT_MIN || n > INT_MAX) {
    bad_key(key, "an integer");
  }
  return static_cast<int>(n);
}

util::TimeNs as_seconds(const std::string& key, const JsonValue& v) {
  const double s = as_number(key, v);
  if (!util::seconds_representable(s)) {
    bad_key(key, "a finite number of seconds below 9.2e9");
  }
  return util::from_seconds(s);
}

using Strings = std::vector<std::string>;
using Numbers = std::vector<double>;

}  // namespace

ShardSelector ShardSelector::parse(std::string_view text) {
  const auto fail = [&] {
    throw std::invalid_argument(
        "shard selector '" + std::string(text) +
        "' must be I/N with 1 <= I <= N (e.g. --shard 2/3)");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) fail();
  const auto parse_field = [&](std::string_view field) -> std::uint32_t {
    if (field.empty() || field.size() > 9) fail();
    std::uint64_t value = 0;
    for (const char c : field) {
      if (c < '0' || c > '9') fail();
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return static_cast<std::uint32_t>(value);
  };
  const std::uint32_t index = parse_field(text.substr(0, slash));
  const std::uint32_t count = parse_field(text.substr(slash + 1));
  if (index < 1 || index > count) fail();
  return ShardSelector{index - 1, count};
}

std::string ShardSelector::to_string() const {
  return std::to_string(index + 1) + "/" + std::to_string(count);
}

std::optional<attacks::ScenarioKind> scenario_from_token(
    std::string_view token) {
  for (const attacks::ScenarioKind kind : attacks::kAllScenarios) {
    if (scenario_token(kind) == token) return kind;
  }
  return std::nullopt;
}

std::vector<double> CampaignSpec::default_threshold_scales() {
  return {0.0, 0.1, 0.2,  0.3, 0.4,  0.5, 0.6, 0.7, 0.8, 0.9,  1.0,
          1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0};
}

CampaignSpec CampaignSpec::smoke() {
  CampaignSpec spec;
  spec.name = "smoke";
  spec.detectors = {"bit-entropy", "symbol-entropy"};
  spec.scenarios = {attacks::ScenarioKind::kSingle,
                    attacks::ScenarioKind::kFlood};
  spec.rates_hz = {100.0, 20.0};
  spec.seeds = 1;
  spec.experiment.training_windows = 10;
  spec.experiment.clean_lead_in = 2 * util::kSecond;
  spec.experiment.attack_duration = 6 * util::kSecond;
  return spec;
}

std::size_t CampaignSpec::trial_count() const noexcept {
  if (capture_mode()) return detectors.size() * captures.size();
  const std::size_t axis =
      sweep_ids.empty() ? scenarios.size() : sweep_ids.size();
  return detectors.size() * axis * rates_hz.size() *
         static_cast<std::size_t>(seeds > 0 ? seeds : 0);
}

void CampaignSpec::validate() const {
  if (detectors.empty()) {
    throw std::invalid_argument("campaign spec: no detectors");
  }
  if (capture_mode()) {
    // The synthetic-grid axes carry no meaning over recorded traffic;
    // captures themselves are validated when the runner resolves the
    // directory (a spec file may leave the list empty).
    if (capture_dir.empty()) {
      // Captures without a directory would resolve against the process
      // CWD — including the default labels.csv path, which could pick up
      // an unrelated file as ground truth.
      throw std::invalid_argument(
          "campaign spec: captures require capture_dir");
    }
    for (const std::string& capture : captures) {
      if (capture.empty()) {
        throw std::invalid_argument("campaign spec: empty capture name");
      }
    }
  } else {
    if (scenarios.empty() && sweep_ids.empty()) {
      throw std::invalid_argument("campaign spec: no scenarios or sweep IDs");
    }
    if (rates_hz.empty()) {
      throw std::invalid_argument("campaign spec: no injection rates");
    }
    for (const double rate : rates_hz) {
      if (!(rate > 0.0)) {
        throw std::invalid_argument("campaign spec: rates must be positive");
      }
    }
    if (seeds < 1) {
      throw std::invalid_argument("campaign spec: seeds must be >= 1");
    }
    // The simulated vehicle sends standard frames; a wider ID would fail
    // the injector's contract mid-run.
    for (const std::uint32_t id : sweep_ids) {
      if (id > can::kMaxStdId) {
        throw std::invalid_argument(
            "campaign spec: sweep IDs must be standard (<= 0x7FF)");
      }
    }
  }
  if (threshold_scales.empty()) {
    throw std::invalid_argument("campaign spec: no threshold scales");
  }
  for (const double scale : threshold_scales) {
    if (scale < 0.0) {
      throw std::invalid_argument(
          "campaign spec: threshold scales must be >= 0");
    }
  }
  if (workers < 0) {
    throw std::invalid_argument("campaign spec: workers must be >= 0");
  }
  if (shard && (shard->count < 1 || shard->index >= shard->count)) {
    throw std::invalid_argument(
        "campaign spec: shard index must lie inside the shard count");
  }
  // The experiment knobs a spec (or CLI override) can reach; anything
  // negative here would place the attack at negative time or spin the
  // training loop forever, so reject it before a runner is built.
  if (experiment.training_windows < 2) {
    throw std::invalid_argument(
        "campaign spec: training_windows must be >= 2");
  }
  if (experiment.clean_lead_in < 0) {
    throw std::invalid_argument("campaign spec: lead-in must be >= 0");
  }
  if (experiment.attack_duration <= 0) {
    throw std::invalid_argument(
        "campaign spec: attack duration must be > 0");
  }
  if (experiment.pipeline.window.duration <= 0) {
    throw std::invalid_argument(
        "campaign spec: window duration must be > 0");
  }
}

std::vector<TrialPlan> CampaignSpec::plan() const {
  validate();
  std::vector<TrialPlan> plans;
  plans.reserve(trial_count());
  if (capture_mode()) {
    if (captures.empty()) {
      throw std::invalid_argument(
          "campaign spec: capture mode but no captures resolved — point "
          "capture_dir at a directory with trace files");
    }
    // Captures replay deterministically, so one trial per detector x
    // capture; the trial seed is the capture index (stable under
    // re-ordering of the detector axis).
    for (const std::string& detector : detectors) {
      for (std::size_t c = 0; c < captures.size(); ++c) {
        TrialPlan trial;
        trial.index = plans.size();
        trial.detector = detector;
        trial.capture = captures[c];
        trial.trial_seed = c;
        plans.push_back(std::move(trial));
      }
    }
    return plans;
  }
  const bool sweep = !sweep_ids.empty();
  const std::size_t axis = sweep ? sweep_ids.size() : scenarios.size();
  for (const std::string& detector : detectors) {
    for (std::size_t a = 0; a < axis; ++a) {
      for (std::size_t r = 0; r < rates_hz.size(); ++r) {
        for (int s = 0; s < seeds; ++s) {
          TrialPlan trial;
          trial.index = plans.size();
          trial.detector = detector;
          trial.frequency_hz = rates_hz[r];
          trial.seed_index = s;
          if (sweep) {
            // Per-identifier counter, matching the historic Fig. 3 sweep
            // (id-major, then rate, then repeat).
            trial.kind = attacks::ScenarioKind::kSingle;
            trial.sweep_id = sweep_ids[a];
            trial.trial_seed =
                (static_cast<std::uint64_t>(a) * rates_hz.size() + r) *
                    static_cast<std::uint64_t>(seeds) +
                static_cast<std::uint64_t>(s);
          } else {
            // Rate-major counter per scenario, matching the historic
            // Table I trial ordering (0..N-1 across the rate grid).
            trial.kind = scenarios[a];
            trial.trial_seed =
                static_cast<std::uint64_t>(r) *
                    static_cast<std::uint64_t>(seeds) +
                static_cast<std::uint64_t>(s);
          }
          plans.push_back(std::move(trial));
        }
      }
    }
  }
  return plans;
}

std::vector<TrialPlan> CampaignSpec::sharded_plan() const {
  std::vector<TrialPlan> full = plan();
  if (!shard) return full;
  std::vector<TrialPlan> sliced;
  sliced.reserve(full.size() / shard->count + 1);
  for (TrialPlan& trial : full) {
    if (shard->covers(trial.index)) sliced.push_back(std::move(trial));
  }
  return sliced;
}

CampaignSpec CampaignSpec::from_json(std::string_view text) {
  JsonValue root;
  try {
    root = util::parse_json(text, "campaign spec JSON");
  } catch (const util::JsonDepthError&) {
    throw;
  } catch (const util::JsonError& e) {
    throw std::invalid_argument(e.what());
  }
  if (root.type != JsonValue::Type::kObject) {
    throw std::invalid_argument("campaign spec: top level must be an object");
  }

  CampaignSpec spec;
  for (const auto& [key, value] : root.members) {
    if (key == "name") {
      spec.name = as<std::string>(key, value, "a string");
    } else if (key == "detectors") {
      spec.detectors = as<Strings>(key, value, "an array of strings");
    } else if (key == "scenarios") {
      spec.scenarios.clear();
      for (const std::string& token :
           as<Strings>(key, value, "an array of strings")) {
        const auto kind = scenario_from_token(token);
        if (!kind) {
          throw std::invalid_argument(
              "campaign spec: unknown scenario '" + token +
              "' (flood|single|multi2|multi3|multi4|weak)");
        }
        spec.scenarios.push_back(*kind);
      }
    } else if (key == "sweep_ids") {
      spec.sweep_ids.clear();
      for (const double id : as<Numbers>(key, value, "an array of numbers")) {
        if (id < 0 || id != std::floor(id) || id > 4294967295.0) {
          bad_key(key, "identifier values (integers < 2^32)");
        }
        spec.sweep_ids.push_back(static_cast<std::uint32_t>(id));
      }
    } else if (key == "rates_hz") {
      spec.rates_hz = as<Numbers>(key, value, "an array of numbers");
    } else if (key == "seeds") {
      spec.seeds = as_int(key, value);
    } else if (key == "seed") {
      // Doubles hold integers exactly only up to 2^53; a silently rounded
      // seed would be a different campaign than the file says.
      const double seed = as_number(key, value);
      if (seed < 0 || seed != std::floor(seed) || seed > 9007199254740992.0) {
        bad_key(key, "a non-negative integer <= 2^53");
      }
      spec.experiment.seed = static_cast<std::uint64_t>(seed);
    } else if (key == "training_windows") {
      const int windows = as_int(key, value);
      if (windows < 2) bad_key(key, "an integer >= 2");
      spec.experiment.training_windows = static_cast<std::size_t>(windows);
    } else if (key == "lead_in_seconds") {
      spec.experiment.clean_lead_in = as_seconds(key, value);
    } else if (key == "attack_seconds") {
      spec.experiment.attack_duration = as_seconds(key, value);
    } else if (key == "window_seconds") {
      spec.experiment.pipeline.window.duration = as_seconds(key, value);
    } else if (key == "alpha") {
      spec.experiment.pipeline.detector.alpha = as_number(key, value);
      spec.experiment.muter.alpha = as_number(key, value);
    } else if (key == "track_pairs") {
      spec.experiment.pipeline.window.track_pairs =
          as<bool>(key, value, "a boolean");
    } else if (key == "period_scale") {
      spec.experiment.vehicle.period_scale = as_number(key, value);
    } else if (key == "model_path") {
      spec.model_path = as<std::string>(key, value, "a string");
    } else if (key == "capture_dir") {
      spec.capture_dir = as<std::string>(key, value, "a string");
    } else if (key == "captures") {
      spec.captures = as<Strings>(key, value, "an array of strings");
    } else if (key == "labels_path") {
      spec.labels_path = as<std::string>(key, value, "a string");
    } else if (key == "threshold_scales") {
      spec.threshold_scales = as<Numbers>(key, value, "an array of numbers");
    } else if (key == "workers") {
      spec.workers = as_int(key, value);
    } else {
      throw std::invalid_argument("campaign spec: unknown key '" + key + "'");
    }
  }
  spec.validate();
  return spec;
}

std::string CampaignSpec::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"name\": " << util::json_string(name) << ",\n";
  out << "  \"detectors\": [";
  for (std::size_t i = 0; i < detectors.size(); ++i) {
    out << (i ? ", " : "") << util::json_string(detectors[i]);
  }
  out << "],\n";
  if (sweep_ids.empty()) {
    out << "  \"scenarios\": [";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      out << (i ? ", " : "") << '"' << scenario_token(scenarios[i]) << '"';
    }
    out << "],\n";
  } else {
    out << "  \"sweep_ids\": [";
    for (std::size_t i = 0; i < sweep_ids.size(); ++i) {
      out << (i ? ", " : "") << sweep_ids[i];
    }
    out << "],\n";
  }
  out << "  \"rates_hz\": [";
  for (std::size_t i = 0; i < rates_hz.size(); ++i) {
    out << (i ? ", " : "") << json_number(rates_hz[i]);
  }
  out << "],\n";
  out << "  \"seeds\": " << seeds << ",\n";
  out << "  \"seed\": " << experiment.seed << ",\n";
  out << "  \"training_windows\": " << experiment.training_windows << ",\n";
  out << "  \"lead_in_seconds\": "
      << json_number(util::to_seconds(experiment.clean_lead_in)) << ",\n";
  out << "  \"attack_seconds\": "
      << json_number(util::to_seconds(experiment.attack_duration)) << ",\n";
  out << "  \"window_seconds\": "
      << json_number(util::to_seconds(experiment.pipeline.window.duration))
      << ",\n";
  out << "  \"alpha\": " << json_number(experiment.pipeline.detector.alpha)
      << ",\n";
  out << "  \"track_pairs\": "
      << (experiment.pipeline.window.track_pairs ? "true" : "false") << ",\n";
  out << "  \"period_scale\": " << json_number(experiment.vehicle.period_scale)
      << ",\n";
  // `model_path` is deliberately NOT serialized: like `workers` below,
  // where the models came from is an execution knob, and a bundle
  // cold-start must produce a byte-identical report to the
  // train-in-process run of the same spec. (from_json still accepts the
  // key, so spec files can request a cold start.)
  if (capture_mode()) {
    out << "  \"capture_dir\": " << util::json_string(capture_dir)
        << ",\n";
    out << "  \"captures\": [";
    for (std::size_t i = 0; i < captures.size(); ++i) {
      out << (i ? ", " : "") << util::json_string(captures[i]);
    }
    out << "],\n";
    if (!labels_path.empty()) {
      out << "  \"labels_path\": " << util::json_string(labels_path)
          << ",\n";
    }
  }
  // `workers` is deliberately NOT serialized: it is an execution knob (like
  // wall time), and report artifacts must stay byte-identical between
  // 1-worker and N-worker runs of the same spec.
  out << "  \"threshold_scales\": [";
  for (std::size_t i = 0; i < threshold_scales.size(); ++i) {
    out << (i ? ", " : "") << json_number(threshold_scales[i]);
  }
  out << "]\n";
  out << "}\n";
  return out.str();
}

}  // namespace canids::campaign
