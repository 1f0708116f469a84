#include "campaign/partial.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/binary_io.h"

namespace canids::campaign {

namespace {

/// Cap on one row's vector counts (observations, planned IDs, intervals):
/// a corrupted count must fail fast instead of attempting a huge reserve.
constexpr std::uint64_t kMaxElementCount = 1ull << 30;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("campaign partial: " + what);
}

std::uint64_t read_count(util::BinaryReader& reader, const char* what) {
  const std::uint64_t count = reader.u64(what);
  if (count > kMaxElementCount) {
    reader.fail(std::string("implausible ") + what);
  }
  return count;
}

// ---- trial serialization ---------------------------------------------------
// Every InstrumentedTrial field, in declaration order, so a merged report
// aggregates from exactly what the shard measured. Doubles travel as raw
// bit patterns: the merge must reproduce the single-process report's bytes.

void write_trial(util::BinaryWriter& out,
                 const metrics::InstrumentedTrial& trial) {
  out.str(trial.backend);
  out.str(scenario_token(trial.kind));
  out.u8(trial.single_id ? 1 : 0);
  if (trial.single_id) out.u32(*trial.single_id);
  out.str(trial.capture);
  out.f64(trial.frequency_hz);
  out.u64(trial.trial_seed);
  out.u64(trial.planned_ids.size());
  for (const std::uint32_t id : trial.planned_ids) out.u32(id);
  out.i64(trial.attack_start);
  out.i64(trial.attack_end);
  out.u64(trial.attack_intervals.size());
  for (const trace::LabelInterval& interval : trial.attack_intervals) {
    out.i64(interval.start);
    out.i64(interval.end);
  }
  out.u64(trial.frames.injected_frames);
  out.u64(trial.frames.detected_frames);
  out.u64(trial.windows.true_positive);
  out.u64(trial.windows.false_positive);
  out.u64(trial.windows.true_negative);
  out.u64(trial.windows.false_negative);
  out.f64(trial.detection_rate);
  out.u8(trial.inference_accuracy ? 1 : 0);
  if (trial.inference_accuracy) out.f64(*trial.inference_accuracy);
  out.f64(trial.inference_hit_sum);
  out.u64(trial.inference_windows);
  out.f64(trial.injection_rate_arbitration);
  out.f64(trial.injection_rate_success);
  out.u64(trial.injected_transmitted);
  out.f64(trial.bus_load);
  out.u64(trial.observations.size());
  for (const metrics::WindowObservation& window : trial.observations) {
    out.i64(window.start);
    out.i64(window.end);
    out.u64(window.frames);
    out.u64(window.injected);
    out.u8(window.evaluated ? 1 : 0);
    out.u8(window.alert ? 1 : 0);
    out.f64(window.metric);
    out.f64(window.threshold);
  }
  out.u64(trial.counters.frames);
  out.u64(trial.counters.windows_closed);
  out.u64(trial.counters.windows_evaluated);
  out.u64(trial.counters.alerts);
  out.u64(trial.counters.parse_errors);
  out.u64(trial.counters.dropped_frames);
}

metrics::InstrumentedTrial read_trial(util::BinaryReader& in) {
  metrics::InstrumentedTrial trial;
  trial.backend = in.str("trial backend");
  const std::string token = in.str("trial scenario token");
  const auto kind = scenario_from_token(token);
  if (!kind) in.fail("unknown scenario token '" + token + "'");
  trial.kind = *kind;
  if (in.boolean("trial sweep-id flag")) {
    trial.single_id = in.u32("trial sweep id");
  }
  trial.capture = in.str("trial capture name");
  trial.frequency_hz = in.f64("trial frequency");
  trial.trial_seed = in.u64("trial seed");
  const std::uint64_t planned = read_count(in, "planned-id count");
  trial.planned_ids.reserve(static_cast<std::size_t>(planned));
  for (std::uint64_t i = 0; i < planned; ++i) {
    trial.planned_ids.push_back(in.u32("planned id"));
  }
  trial.attack_start = in.i64("attack start");
  trial.attack_end = in.i64("attack end");
  const std::uint64_t intervals = read_count(in, "attack-interval count");
  trial.attack_intervals.reserve(static_cast<std::size_t>(intervals));
  for (std::uint64_t i = 0; i < intervals; ++i) {
    trace::LabelInterval interval;
    interval.start = in.i64("attack interval start");
    interval.end = in.i64("attack interval end");
    trial.attack_intervals.push_back(interval);
  }
  trial.frames.injected_frames = in.u64("injected frames");
  trial.frames.detected_frames = in.u64("detected frames");
  trial.windows.true_positive = in.u64("true positives");
  trial.windows.false_positive = in.u64("false positives");
  trial.windows.true_negative = in.u64("true negatives");
  trial.windows.false_negative = in.u64("false negatives");
  trial.detection_rate = in.f64("detection rate");
  if (in.boolean("inference-accuracy flag")) {
    trial.inference_accuracy = in.f64("inference accuracy");
  }
  trial.inference_hit_sum = in.f64("inference hit sum");
  trial.inference_windows = in.u64("inference windows");
  trial.injection_rate_arbitration = in.f64("injection rate (arb)");
  trial.injection_rate_success = in.f64("injection rate (success)");
  trial.injected_transmitted = in.u64("transmitted count");
  trial.bus_load = in.f64("bus load");
  const std::uint64_t observations = read_count(in, "observation count");
  trial.observations.reserve(static_cast<std::size_t>(observations));
  for (std::uint64_t i = 0; i < observations; ++i) {
    metrics::WindowObservation window;
    window.start = in.i64("window start");
    window.end = in.i64("window end");
    window.frames = in.u64("window frames");
    window.injected = in.u64("window injected");
    window.evaluated = in.boolean("window evaluated flag");
    window.alert = in.boolean("window alert flag");
    window.metric = in.f64("window metric");
    window.threshold = in.f64("window threshold");
    trial.observations.push_back(window);
  }
  trial.counters.frames = in.u64("counter frames");
  trial.counters.windows_closed = in.u64("counter windows closed");
  trial.counters.windows_evaluated = in.u64("counter windows evaluated");
  trial.counters.alerts = in.u64("counter alerts");
  trial.counters.parse_errors = in.u64("counter parse errors");
  trial.counters.dropped_frames = in.u64("counter dropped frames");
  return trial;
}

// ---- fingerprints ----------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_bytes(std::uint64_t& hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& hash, std::uint64_t value) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>((value >> (8 * i)) & 0xFF);
  }
  fnv_bytes(hash, bytes, sizeof bytes);
}

void fnv_string(std::uint64_t& hash, std::string_view s) {
  fnv_u64(hash, s.size());  // length-prefixed: "ab","c" != "a","bc"
  fnv_bytes(hash, s.data(), s.size());
}

}  // namespace

std::uint64_t fingerprint_spec(const CampaignSpec& spec) {
  std::uint64_t hash = kFnvOffset;
  fnv_string(hash, spec.to_json());
  return hash;
}

std::uint64_t fingerprint_plan(const std::vector<TrialPlan>& plan) {
  std::uint64_t hash = kFnvOffset;
  fnv_u64(hash, plan.size());
  for (const TrialPlan& trial : plan) {
    fnv_u64(hash, trial.index);
    fnv_string(hash, trial.detector);
    fnv_string(hash, scenario_token(trial.kind));
    fnv_u64(hash, trial.sweep_id ? 1 : 0);
    fnv_u64(hash, trial.sweep_id ? *trial.sweep_id : 0);
    fnv_string(hash, trial.capture);
    fnv_u64(hash, std::bit_cast<std::uint64_t>(trial.frequency_hz));
    fnv_u64(hash, static_cast<std::uint64_t>(trial.seed_index));
    fnv_u64(hash, trial.trial_seed);
  }
  return hash;
}

void PartialReport::save(std::ostream& out) const {
  const std::vector<TrialPlan> plan = spec.plan();
  util::BinaryWriter writer(out);
  writer.bytes(kPartialMagic);
  writer.u32(kPartialFormatVersion);
  writer.u32(shard.index);
  writer.u32(shard.count);
  writer.u64(fingerprint_spec(spec));
  writer.u64(fingerprint_plan(plan));
  writer.u64(plan.size());
  writer.str(spec.to_json());
  writer.u64(rows.size());
  for (const Row& row : rows) {
    writer.u64(row.plan_index);
    write_trial(writer, row.trial);
  }
  out.flush();
  if (!out) fail("write failed");
}

void PartialReport::save_file(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot write " + path.string());
  save(out);
}

PartialReport PartialReport::load(std::istream& in) {
  util::BinaryReader reader(in, "campaign partial");
  char magic[8];
  in.read(magic, sizeof magic);
  if (in.gcount() != sizeof magic ||
      std::string_view(magic, sizeof magic) != kPartialMagic) {
    fail("bad magic (not a canids partial report)");
  }
  const std::uint32_t version = reader.u32("version field");
  if (version != kPartialFormatVersion) {
    fail("unsupported format version " + std::to_string(version) +
         " (this build reads version " +
         std::to_string(kPartialFormatVersion) + ")");
  }

  PartialReport partial;
  partial.shard.index = reader.u32("shard index");
  partial.shard.count = reader.u32("shard count");
  if (partial.shard.count < 1 || partial.shard.index >= partial.shard.count) {
    fail("shard index " + std::to_string(partial.shard.index) +
         " outside shard count " + std::to_string(partial.shard.count));
  }
  const std::uint64_t spec_hash = reader.u64("spec fingerprint");
  const std::uint64_t plan_hash = reader.u64("plan fingerprint");
  const std::uint64_t plan_size = reader.u64("plan trial count");
  const std::string spec_json = reader.str("spec JSON");
  try {
    partial.spec = CampaignSpec::from_json(spec_json);
  } catch (const std::exception& e) {
    fail(std::string("embedded spec does not parse: ") + e.what());
  }
  if (fingerprint_spec(partial.spec) != spec_hash) {
    fail("spec fingerprint mismatch (tampered or foreign file)");
  }
  const std::vector<TrialPlan> plan = partial.spec.plan();
  if (plan.size() != plan_size || fingerprint_plan(plan) != plan_hash) {
    fail("plan fingerprint mismatch — this build plans the campaign "
         "differently than the one that wrote the shard");
  }

  const std::uint64_t row_count = read_count(reader, "row count");
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (partial.shard.covers(i)) ++expected;
  }
  if (row_count != expected) {
    fail("shard " + partial.shard.to_string() + " must carry " +
         std::to_string(expected) + " trial rows, file has " +
         std::to_string(row_count));
  }
  partial.rows.reserve(static_cast<std::size_t>(row_count));
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < row_count; ++i) {
    Row row;
    row.plan_index = reader.u64("row plan index");
    if (row.plan_index >= plan.size()) fail("row plan index out of range");
    if (i > 0 && row.plan_index <= previous) {
      fail("rows out of canonical order");
    }
    if (!partial.shard.covers(row.plan_index)) {
      fail("row " + std::to_string(row.plan_index) +
           " does not belong to shard " + partial.shard.to_string());
    }
    row.trial = read_trial(reader);
    const TrialPlan& planned = plan[static_cast<std::size_t>(row.plan_index)];
    if (row.trial.backend != planned.detector ||
        row.trial.trial_seed != planned.trial_seed ||
        row.trial.capture != planned.capture) {
      fail("row " + std::to_string(row.plan_index) +
           " disagrees with the plan's trial coordinates");
    }
    previous = row.plan_index;
    partial.rows.push_back(std::move(row));
  }
  reader.expect_eof("trailing bytes after the last row");
  return partial;
}

PartialReport PartialReport::load_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read " + path.string());
  return load(in);
}

CampaignReport merge_partials(std::vector<PartialReport> partials) {
  if (partials.empty()) fail("nothing to merge");

  const std::uint64_t spec_hash = fingerprint_spec(partials.front().spec);
  const std::uint64_t plan_hash =
      fingerprint_plan(partials.front().spec.plan());
  const std::uint32_t count = partials.front().shard.count;
  for (const PartialReport& partial : partials) {
    if (fingerprint_spec(partial.spec) != spec_hash) {
      fail("shard " + partial.shard.to_string() +
           " belongs to a different campaign spec");
    }
    if (fingerprint_plan(partial.spec.plan()) != plan_hash) {
      fail("shard " + partial.shard.to_string() +
           " was planned differently (plan fingerprint mismatch)");
    }
    if (partial.shard.count != count) {
      fail("shard " + partial.shard.to_string() + " disagrees on the shard "
           "count (expected /" + std::to_string(count) + ")");
    }
  }

  std::vector<bool> present(count, false);
  for (const PartialReport& partial : partials) {
    if (present[partial.shard.index]) {
      fail("duplicate shard " + partial.shard.to_string());
    }
    present[partial.shard.index] = true;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!present[i]) {
      fail("missing shard " + ShardSelector{i, count}.to_string());
    }
  }

  CampaignSpec spec = partials.front().spec;
  spec.shard.reset();  // the merged report is the unsharded campaign
  const std::size_t trial_count = spec.plan().size();
  std::vector<metrics::InstrumentedTrial> trials(trial_count);
  std::vector<bool> filled(trial_count, false);
  for (PartialReport& partial : partials) {
    for (PartialReport::Row& row : partial.rows) {
      const auto index = static_cast<std::size_t>(row.plan_index);
      // load() already proved per-shard ownership and ordering; this is
      // the cross-shard belt-and-braces that every slot lands exactly once.
      if (filled[index]) {
        fail("trial " + std::to_string(index) + " supplied twice");
      }
      filled[index] = true;
      trials[index] = std::move(row.trial);
    }
  }
  for (std::size_t i = 0; i < trial_count; ++i) {
    if (!filled[i]) fail("trial " + std::to_string(i) + " missing after merge");
  }
  return make_report(std::move(spec), std::move(trials));
}

}  // namespace canids::campaign
