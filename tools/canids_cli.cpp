// canids — command-line front end to the library. print_usage() below is
// the authoritative list of each command's flags.
//
//   canids info <capture>                      summarise a CAN log
//   canids convert <in> <out> [--to FORMAT]    re-encode a capture
//       (candump|vspy|binary; default binary — the compact fixed-record
//       trace format the ingest hot path reads without text parsing)
//   canids train <bundle-out> <clean>...       train every model -> bundle
//   canids detectors                           list registered detector backends
//   canids models inspect <bundle>             describe a model bundle
//   canids detect <models> <capture>           run an IDS over a capture
//   canids fleet <models> <dir|capture>...     sharded multi-vehicle analysis
//   canids serve <models>                      long-running live daemon:
//       socket ingest of candump lines -> per-stream detection, JSONL
//       alert streaming, STATUS/RELOAD/SHUTDOWN control protocol, hot
//       model reload on SIGHUP without disconnecting streams
//   canids send <capture> --addr ADDR          replay a capture to a daemon,
//       paced by recorded timestamps
//   canids ctl <control-socket> <COMMAND...>   one-shot control client
//   canids simulate <log-out>                  record the synthetic vehicle,
//       optionally under attack (--attack: any scenario token — flood,
//       single, multi2..4, weak, replay, suspend, fuzzing, masquerade)
//   canids campaign [spec.json]                parallel detector x scenario
//       x rate x seed evaluation sweep with
//       ROC/AUC + detection-latency reports (CSV + JSON); with
//       [--captures DIR [--labels CSV]] the grid replays recorded traces
//       instead of the synthetic vehicle
//
// `canids train` emits a versioned model bundle carrying every trainable
// model (golden template + Müter entropy band + interval periods), so a
// later `detect`/`fleet`/`campaign --model BUNDLE` cold-starts ANY backend
// with zero training; a bare legacy golden-template file still loads
// anywhere a bundle is accepted. `campaign --save-models PATH` persists the
// models a campaign trained; `--model`/`--template` are both accepted on
// campaign, and on detect/fleet in place of the positional models
// argument. Captures may be candump logs, Vehicle-Spy-style CSV, or the
// compact binary trace format
// (all auto-detected; `canids convert` moves between them losslessly). `detect` and
// `fleet` run any backend in the detector table (default: the
// paper's bit-entropy detector) through one code path; both exit 0 when
// the traffic is clean and 2 when intrusions were flagged, so they can
// gate scripts. Baseline detectors without a bundled model self-calibrate
// on the first windows of each stream. Malformed capture lines are counted
// (and surfaced) instead of aborting the run; unknown flags or detector
// names print usage / the registry listing and exit 1.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/registry.h"
#include "attacks/scenario.h"
#include "baselines/interval_ids.h"
#include "baselines/muter_entropy.h"
#include "campaign/partial.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "engine/fleet_engine.h"
#include "ids/pipeline.h"
#include "metrics/experiment.h"
#include "model/bundle.h"
#include "model/store.h"
#include "serve/alert_json.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "telemetry/event_log.h"
#include "telemetry/exposition.h"
#include "telemetry/metrics.h"
#include "trace/trace_io.h"
#include "util/csv.h"
#include "util/table.h"

using namespace canids;

namespace {

/// Thrown for malformed command lines; main() prints the message plus the
/// usage text and exits 1 (the CLI-hardening contract: nothing the user
/// types is silently ignored).
struct UsageError {
  std::string message;
};

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage:\n"
               "  canids info <capture>\n"
               "  canids convert <in> <out> [--to candump|vspy|binary]\n"
               "  canids train <bundle-out> <clean-capture>...\n"
               "  canids detectors\n"
               "  canids models inspect <bundle>\n"
               "  canids detect <models> <capture> [--detector NAME] "
               "[--alpha A] [--window S] [--rank N] [--no-pairs] "
               "[--calibrate N]\n"
               "  canids fleet <models> <dir-or-capture>... "
               "[--detector NAME] [--shards N] [--producers N] [--alpha A] "
               "[--window S] [--calibrate N] [--quiet] "
               "[--queue-capacity N] [--drain-batch N] [--alerts-out FILE] "
               "[--metrics-out FILE] [--telemetry-sample N]\n"
               "  canids serve <models> [--uds PATH] [--port N [--host H]] "
               "[--control PATH] [--alerts-out FILE] [--events-out FILE] "
               "[--telemetry-sample N] [--detector NAME] "
               "[--shards N] [--alpha A] [--window S] "
               "[--calibrate N] [--on-full block|drop-newest] "
               "[--queue-capacity N] [--drain-batch N] [--max-line N] "
               "[--quiet]\n"
               "  canids send <capture> --addr ADDR [--key KEY] [--speed X] "
               "[--wire text|binary|auto] [--quiet]\n"
               "  canids ctl <control-socket> "
               "STATUS|METRICS|RELOAD [path]|SHUTDOWN\n"
               "  canids simulate <log-out> [--seconds N] [--behavior NAME] "
               "[--seed N] [--attack KIND] [--freq HZ]\n"
               "  canids campaign [spec.json] [--smoke] [--out DIR] "
               "[--detectors A,B] [--scenarios A,B] [--ids HEX,...] "
               "[--rates HZ,...] [--seeds N] [--seed N] [--alpha A] "
               "[--window S] [--lead-in S] [--duration S] "
               "[--training-windows N] [--workers N] [--model BUNDLE] "
               "[--template PATH] [--save-models PATH] "
               "[--captures DIR] [--labels CSV] [--shard I/N] [--quiet]\n"
               "  canids campaign merge <out-dir> <partial>... [--quiet]\n"
               "\n"
               "`train --save PATH` (or the positional form) writes a model "
               "bundle carrying every trained model; <models> is a bundle "
               "or a legacy golden-template file, also accepted as "
               "`--model PATH`/`--template PATH` in place of the "
               "positional argument. `campaign --model BUNDLE` cold-starts "
               "the sweep with zero training passes; `--captures DIR` "
               "replays recorded traces scored against DIR/labels.csv. "
               "`--shard I/N` runs slice I of N of the trial grid and "
               "writes a partial-report file to --out; `campaign merge` "
               "reassembles all N partials into the full report directory, "
               "byte-identical to the unsharded run. `convert` re-encodes a "
               "capture (default --to binary, the compact fixed-record "
               "format); every command auto-detects all three formats. "
               "`serve` runs the fleet engine as a daemon: clients write "
               "candump lines to --uds/--port (one stream per connection, "
               "named by a `HELLO <key>` first line), alerts stream as JSON "
               "lines to SUBSCRIBE-ed connections and --alerts-out, and the "
               "--control socket (or SIGHUP/SIGUSR1) answers STATUS / "
               "RELOAD / SHUTDOWN — RELOAD hot-swaps the model bundle "
               "without disconnecting streams. `send` replays a capture to "
               "a daemon, paced by recorded timestamps at --speed x "
               "(0 = unpaced); `--wire binary` upgrades the connection "
               "with a BINARY line and streams 22-byte canidsBT records "
               "instead of candump text (`auto` = binary iff the capture "
               "is canidsBT); `fleet --alerts-out` writes the same JSONL "
               "schema, so live and batch runs diff directly. Telemetry: "
               "`ctl ADDR METRICS` and `fleet --metrics-out` dump one "
               "Prometheus text exposition; `serve --events-out` records "
               "lifecycle events as JSONL; `--telemetry-sample N` times "
               "every Nth hot-path batch into latency histograms "
               "(0/absent = no timing; verdicts are byte-identical either "
               "way).\n");
}

int usage() {
  print_usage(stderr);
  return 64;  // EX_USAGE
}

/// Runs one output file's save. An output that cannot be opened or written
/// is reported, and the command exits 66 when this returns false.
template <typename Save>
[[nodiscard]] bool saved(Save&& save) {
  try {
    save();
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
}

std::optional<double> arg_number(std::vector<std::string>& args,
                                 const std::string& flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) {
      double value = 0.0;
      try {
        std::size_t used = 0;
        value = std::stod(args[i + 1], &used);
        if (used != args[i + 1].size()) throw std::invalid_argument("trail");
      } catch (const std::exception&) {
        throw UsageError{"invalid value '" + args[i + 1] + "' for " + flag};
      }
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
  }
  return std::nullopt;
}

/// A seconds-valued flag. Rejects values util::from_seconds cannot convert
/// (non-finite, or beyond the nanosecond clock's range) before they reach
/// it.
std::optional<double> arg_seconds(std::vector<std::string>& args,
                                  const std::string& flag) {
  const std::optional<double> seconds = arg_number(args, flag);
  if (seconds && !util::seconds_representable(*seconds)) {
    throw UsageError{flag + " expects a finite number of seconds below 9.2e9"};
  }
  return seconds;
}

std::optional<std::string> arg_string(std::vector<std::string>& args,
                                      const std::string& flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) {
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
  }
  return std::nullopt;
}

/// Integer flag with explicit bounds. Fractional or out-of-range values
/// are rejected loudly (the CLI-hardening contract: a silently truncated
/// `--seeds 2.7` — or a `--seeds 2^32+1` wrapped through an int cast —
/// would run a different campaign than the user asked for).
std::optional<long long> arg_integer(std::vector<std::string>& args,
                                     const std::string& flag,
                                     long long min_value,
                                     long long max_value) {
  const auto value = arg_number(args, flag);
  if (!value) return std::nullopt;
  if (*value != std::floor(*value) ||
      *value < static_cast<double>(min_value) ||
      *value > static_cast<double>(max_value)) {
    throw UsageError{flag + " expects an integer in [" +
                     std::to_string(min_value) + ", " +
                     std::to_string(max_value) + "]"};
  }
  return static_cast<long long>(*value);
}

bool arg_flag(std::vector<std::string>& args, const std::string& flag) {
  const auto it = std::find(args.begin(), args.end(), flag);
  if (it == args.end()) return false;
  args.erase(it);
  return true;
}

/// Every flag must have been consumed by now; anything left is a typo or
/// an unsupported flag — reject loudly instead of ignoring it.
void reject_leftovers(const std::vector<std::string>& args) {
  if (args.empty()) return;
  throw UsageError{"unknown or misplaced argument '" + args.front() + "'"};
}

int cmd_info(const std::string& path) {
  const trace::Trace capture = trace::load_trace_file(path);
  const trace::TraceSummary summary = trace::summarize(capture);
  std::printf("%s:\n", path.c_str());
  std::printf("  frames        : %zu\n", summary.frames);
  std::printf("  distinct IDs  : %zu\n", summary.distinct_ids);
  std::printf("  duration      : %.3f s\n", util::to_seconds(summary.duration));
  std::printf("  frame rate    : %.1f /s\n", summary.frames_per_second);
  return 0;
}

/// `canids convert <in> <out> [--to FORMAT]` — lossless re-encode between
/// the text formats and the compact binary trace format (the default
/// target: it is what the ingest hot path reads fastest).
int cmd_convert(const std::string& in_path, const std::string& out_path,
                std::vector<std::string> args) {
  trace::TraceFormat format = trace::TraceFormat::kBinary;
  if (const auto token = arg_string(args, "--to")) {
    const auto parsed = trace::trace_format_from_token(*token);
    if (!parsed) {
      throw UsageError{"--to expects candump, vspy, or binary; got '" +
                       *token + "'"};
    }
    format = *parsed;
  }
  reject_leftovers(args);

  const trace::Trace capture = trace::load_trace_file(in_path);
  if (!saved([&] { trace::save_trace_file(out_path, capture, format); })) {
    return 66;
  }
  std::printf("%zu frames -> %s (%s)\n", capture.size(), out_path.c_str(),
              std::string(trace::trace_format_name(format)).c_str());
  return 0;
}

int cmd_train(const std::string& out_path,
              const std::vector<std::string>& inputs) {
  // One pass over the clean captures trains every persistable model: the
  // paper's golden template, the Müter symbol-entropy band, and the Song
  // interval periods — the full bundle a later `detect|fleet|campaign
  // --model` cold-starts from without any training.
  ids::WindowConfig window;
  ids::TemplateBuilder builder;
  std::vector<baselines::SymbolWindow> symbol_windows;
  baselines::IntervalIds interval_model{};
  for (const std::string& path : inputs) {
    const trace::Trace capture = trace::load_trace_file(path);
    ids::WindowAccumulator accumulator(window);
    baselines::SymbolEntropyAccumulator symbol_accumulator(window.duration);
    std::size_t used = 0;
    for (const trace::LogRecord& record : capture) {
      if (auto snap = accumulator.add(record.timestamp, record.frame.id())) {
        if (snap->end - snap->start == window.duration) {
          builder.add_window(*snap);
          ++used;
        }
      }
      if (auto symbol_window = symbol_accumulator.add(
              record.timestamp, record.frame.id().raw())) {
        symbol_windows.push_back(*symbol_window);
      }
      interval_model.train(record.timestamp, record.frame.id().raw());
    }
    std::printf("%s: %zu full windows\n", path.c_str(), used);
  }
  interval_model.finish_training();

  model::StoredModels models;
  models.golden = std::make_shared<const ids::GoldenTemplate>(builder.build());
  if (symbol_windows.size() >= 2) {
    models.muter = std::make_shared<const baselines::MuterEntropyIds>(
        symbol_windows, baselines::MuterConfig{});
  } else {
    std::printf("note: fewer than 2 full windows — symbol-entropy band not "
                "trained, that section is omitted from the bundle.\n");
  }
  if (interval_model.tracked_ids() > 0) {
    models.interval = std::make_shared<const baselines::IntervalIds>(
        std::move(interval_model));
  }

  if (!saved([&] { model::save_models_file(out_path, models); })) {
    return 66;  // EX_NOINPUT-ish
  }
  std::printf("model bundle (template %zu windows, pairs=%s; muter %s; "
              "interval %s) -> %s\n",
              models.golden->training_windows,
              models.golden->has_pairs() ? "yes" : "no",
              models.muter ? "yes" : "no",
              models.interval
                  ? (std::to_string(models.interval->tracked_ids()) + " IDs")
                        .c_str()
                  : "no",
              out_path.c_str());
  if (models.golden->training_windows < ids::kPaperTrainingWindows) {
    std::printf("note: the paper trains on %zu windows; consider more clean "
                "captures.\n",
                ids::kPaperTrainingWindows);
  }
  return 0;
}

/// `canids models inspect <bundle>`: format version, section names/sizes,
/// and a per-model summary line for each section.
int cmd_models_inspect(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 66;
  }
  const model::ModelBundle bundle = model::ModelBundle::load(in);
  std::printf("%s: canids model bundle, format version %u, %zu section%s\n",
              path.c_str(), model::kBundleFormatVersion,
              bundle.sections().size(),
              bundle.sections().size() == 1 ? "" : "s");
  util::Table table({"section", "bytes", "summary"});
  for (const model::ModelBundle::Section& section : bundle.sections()) {
    table.add_row({section.name, std::to_string(section.payload.size()),
                   model::describe_section(section)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_detectors() {
  util::Table table({"name", "paper source", "monitoring state",
                     "malicious-ID inference"});
  for (const analysis::DetectorEntry& entry : analysis::detector_table()) {
    table.add_row({std::string(entry.name), std::string(entry.paper),
                   std::string(entry.state_growth),
                   entry.supports_inference ? "yes" : "no"});
  }
  table.print(std::cout);
  std::printf(
      "select with `canids detect|fleet ... --detector NAME`; baselines "
      "without a training capture self-calibrate on each stream's first "
      "windows (--calibrate N, default 10).\n");
  return 0;
}

/// Load the persisted models detect, fleet and serve run against — a
/// bundle or a legacy bare golden-template file. nullopt (after an error
/// message) when the file cannot be read or has no golden template.
std::optional<model::StoredModels> load_models(const std::string& path) {
  try {
    model::StoredModels models = model::load_models_file(path);
    if (models.golden) return models;
    std::fprintf(stderr, "%s: bundle has no golden-template section\n",
                 path.c_str());
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
  return std::nullopt;
}

/// `--model PATH`, or its legacy spelling `--template PATH`, in place of
/// the positional models argument of detect, fleet and serve.
std::optional<std::string> arg_models(std::vector<std::string>& args) {
  auto path = arg_string(args, "--model");
  return path ? path : arg_string(args, "--template");
}

/// --alpha and --window, the paper's two tuning knobs: the band multiplier
/// α (Th_i = α · range_i, applied to the Müter band as well) and the window
/// length. A value the detectors would refuse is a usage error here.
void parse_windowing(std::vector<std::string>& args,
                     ids::PipelineConfig& pipeline,
                     baselines::MuterConfig& muter) {
  if (const auto alpha = arg_number(args, "--alpha")) {
    if (!std::isfinite(*alpha) || *alpha <= 0.0) {
      throw UsageError{"--alpha expects a finite number > 0"};
    }
    pipeline.detector.alpha = *alpha;
    muter.alpha = *alpha;
  }
  if (const auto window = arg_seconds(args, "--window")) {
    const util::TimeNs duration = util::from_seconds(*window);
    if (duration < 1) {
      throw UsageError{"--window expects a positive number of seconds "
                       "(at least 1 ns)"};
    }
    pipeline.window.duration = duration;
  }
}

/// A registry detector name and the options to build it with.
struct DetectionFlags {
  std::string detector;
  analysis::DetectorOptions options;
};

/// The detection flags detect, fleet and serve share: --detector, the
/// windowing pair and --calibrate. The loaded bundle supplies
/// every pretrained model; a baseline whose model it lacks self-calibrates
/// on each stream's first windows.
DetectionFlags parse_detection_flags(std::vector<std::string>& args,
                                     const model::StoredModels& models) {
  DetectionFlags flags;
  flags.detector = arg_string(args, "--detector").value_or("bit-entropy");
  analysis::DetectorOptions& options = flags.options;
  options.golden = models.golden;
  options.muter_model = models.muter;
  options.interval_model = models.interval;
  parse_windowing(args, options.pipeline, options.muter);
  if (const auto calibrate = arg_integer(args, "--calibrate", 2, 1000000)) {
    options.calibration_windows = static_cast<std::size_t>(*calibrate);
  }
  return flags;
}

/// The engine flags fleet and serve share.
engine::FleetConfig parse_engine_flags(std::vector<std::string>& args) {
  engine::FleetConfig config;
  if (const auto shards = arg_integer(args, "--shards", 0, 4096)) {
    config.shards = static_cast<int>(*shards);
  }
  if (const auto capacity =
          arg_integer(args, "--queue-capacity", 1, 1 << 24)) {
    if ((*capacity & (*capacity - 1)) != 0) {
      throw UsageError{
          "--queue-capacity expects a power of two (the per-stream SPSC "
          "ring is mask-indexed)"};
    }
    config.queue_capacity = static_cast<std::size_t>(*capacity);
  }
  if (const auto drain = arg_integer(args, "--drain-batch", 1, 1 << 20)) {
    config.drain_batch = static_cast<std::size_t>(*drain);
  }
  if (const auto sample =
          arg_integer(args, "--telemetry-sample", 0, 1 << 20)) {
    config.telemetry_sample = static_cast<std::size_t>(*sample);
  }
  return config;
}

/// Build a backend from the registry, translating an unknown name into the
/// hardened exit path (registry listing + exit 1, via UsageError).
std::unique_ptr<analysis::DetectorBackend> make_backend_or_usage(
    const std::string& name, const analysis::DetectorOptions& options) {
  try {
    return analysis::make_detector(name, options);
  } catch (const analysis::UnknownDetectorError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    cmd_detectors();
    throw UsageError{"--detector expects a registered detector name"};
  }
}

/// Print one alerting window, backend-agnostic: bits and candidate IDs
/// when the detector can name them, voters for the ensemble, and the
/// metric/threshold decision variable otherwise.
void print_alert(const char* stream, const analysis::WindowVerdict& verdict) {
  if (stream != nullptr) {
    std::printf("[%s @ %9.3fs] INTRUSION", stream,
                util::to_seconds(verdict.start));
  } else {
    std::printf("[%9.3fs] INTRUSION", util::to_seconds(verdict.start));
  }
  bool detailed = false;
  if (verdict.detail) {
    if (!verdict.detail->alerted_bits.empty()) {
      std::printf("  bits:");
      for (int bit : verdict.detail->alerted_bits) std::printf(" %d", bit + 1);
      detailed = true;
    }
    if (!verdict.detail->ranked_candidates.empty()) {
      std::printf("  candidates:");
      for (std::uint32_t id : verdict.detail->ranked_candidates) {
        std::printf(" %03X", id);
      }
      detailed = true;
    }
    if (!verdict.detail->voters.empty()) {
      std::printf("  voters:");
      for (const std::string& voter : verdict.detail->voters) {
        std::printf(" %s", voter.c_str());
      }
      detailed = true;
    }
  }
  if (!detailed) {
    std::printf("  metric %.4f > threshold %.4f", verdict.metric,
                verdict.threshold);
  }
  std::printf("\n");
}

/// Stream a capture into memory, tolerating malformed lines (counted, not
/// fatal). Returns the frames plus the number of lines skipped.
std::pair<std::vector<can::TimedFrame>, std::uint64_t> read_capture_lenient(
    const std::filesystem::path& path) {
  std::vector<can::TimedFrame> frames;
  std::uint64_t parse_errors = 0;
  const std::unique_ptr<trace::RecordSource> source =
      trace::open_trace_source(path);
  for (;;) {
    try {
      auto frame = source->next();
      if (!frame) break;
      frames.push_back(*frame);
    } catch (const trace::ParseError& e) {
      if (parse_errors == 0) {
        std::fprintf(stderr, "warning: %s: %s (malformed lines are skipped)\n",
                     path.string().c_str(), e.what());
      }
      ++parse_errors;
    }
  }
  return {std::move(frames), parse_errors};
}

int cmd_detect(const std::string& models_path, const std::string& capture_path,
               std::vector<std::string> args) {
  const auto models = load_models(models_path);
  if (!models) return 66;
  auto [detector_name, options] = parse_detection_flags(args, *models);
  // Only detect builds an ID pool, so only detect counts bit pairs: fleet
  // and serve streams run without inference and never pay for them.
  if (arg_flag(args, "--no-pairs")) options.pipeline.window.track_pairs = false;
  // The candidate list can never be longer than the 11-bit ID space.
  if (const auto rank = arg_integer(args, "--rank", 1, 2048)) {
    options.pipeline.inference.rank = static_cast<int>(*rank);
  }
  reject_leftovers(args);

  auto [frames, parse_errors] = read_capture_lenient(capture_path);

  // Inference pool: every standard ID in the capture (a vendor DBC would
  // be better; this is the conservative default).
  std::set<std::uint32_t> pool_set;
  for (const can::TimedFrame& frame : frames) {
    if (!frame.frame.id().is_extended()) {
      pool_set.insert(frame.frame.id().raw());
    }
  }
  options.id_pool.assign(pool_set.begin(), pool_set.end());
  if (options.id_pool.empty() && detector_name == "bit-entropy") {
    std::fprintf(stderr, "capture has no standard-ID frames\n");
    return 65;
  }

  const std::unique_ptr<analysis::DetectorBackend> backend =
      make_backend_or_usage(detector_name, options);

  auto report = [&](const analysis::WindowVerdict& verdict) {
    if (verdict.alert) print_alert(nullptr, verdict);
  };
  // The whole capture goes through the batched hot path in one call —
  // verdicts come back in window order, identical to per-frame feeding.
  std::vector<can::TimedId> items;
  items.reserve(frames.size());
  for (const can::TimedFrame& frame : frames) {
    items.push_back(can::TimedId{frame.timestamp, frame.frame.id()});
  }
  std::vector<analysis::WindowVerdict> verdicts;
  backend->on_frames(items.data(), items.size(), verdicts);
  for (const analysis::WindowVerdict& verdict : verdicts) report(verdict);
  if (auto verdict = backend->finish()) report(*verdict);

  const ids::PipelineCounters& counters = backend->counters();
  std::printf(
      "%llu/%llu windows alerted (detector=%s, %llu evaluated, window=%.2fs)\n",
      static_cast<unsigned long long>(counters.alerts),
      static_cast<unsigned long long>(counters.windows_closed),
      detector_name.c_str(),
      static_cast<unsigned long long>(counters.windows_evaluated),
      util::to_seconds(options.pipeline.window.duration));
  if (parse_errors > 0 || counters.dropped_frames > 0) {
    std::printf("ingest: %llu malformed lines skipped, %llu frames dropped\n",
                static_cast<unsigned long long>(parse_errors),
                static_cast<unsigned long long>(counters.dropped_frames));
  }
  return counters.alerts > 0 ? 2 : 0;
}

/// Expand directory arguments into their capture files (sorted); plain
/// files pass through.
std::vector<std::filesystem::path> collect_captures(
    const std::vector<std::string>& inputs) {
  std::vector<std::filesystem::path> paths;
  for (const std::string& input : inputs) {
    const std::filesystem::path path(input);
    if (std::filesystem::is_directory(path)) {
      std::vector<std::filesystem::path> in_dir;
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (entry.is_regular_file()) in_dir.push_back(entry.path());
      }
      std::sort(in_dir.begin(), in_dir.end());
      paths.insert(paths.end(), in_dir.begin(), in_dir.end());
    } else {
      paths.push_back(path);
    }
  }
  return paths;
}

int cmd_fleet(const std::string& models_path,
              const std::vector<std::string>& inputs,
              std::vector<std::string> args) {
  const auto models = load_models(models_path);
  if (!models) return 66;
  const auto [detector_name, options] = parse_detection_flags(args, *models);
  engine::FleetConfig config = parse_engine_flags(args);
  int producers = 0;
  if (const auto value = arg_integer(args, "--producers", 0, 4096)) {
    producers = static_cast<int>(*value);
  }
  const bool quiet = arg_flag(args, "--quiet");
  const auto alerts_out = arg_string(args, "--alerts-out");
  const auto metrics_out = arg_string(args, "--metrics-out");
  reject_leftovers(args);
  // A registry exists exactly when something will read it: sampling fills
  // its histograms, --metrics-out dumps its exposition.
  if (metrics_out || config.telemetry_sample > 0) {
    config.metrics = std::make_shared<telemetry::MetricsRegistry>();
  }

  // --alerts-out mirrors the serve daemon's sink: one serve::to_json_line
  // per alerting window, so a batch run and a live replay of the same
  // trace produce diff-able files.
  std::optional<std::ofstream> alerts_file;
  if (alerts_out) {
    alerts_file.emplace(*alerts_out, std::ios::out | std::ios::trunc);
    if (!*alerts_file) {
      std::fprintf(stderr, "%s: cannot open for writing\n",
                   alerts_out->c_str());
      return 66;
    }
  }

  const std::vector<std::filesystem::path> paths = collect_captures(inputs);
  if (paths.empty()) {
    std::fprintf(stderr, "no capture files found\n");
    return 66;
  }

  engine::FleetEngine fleet(make_backend_or_usage(detector_name, options),
                            config);
  // Streaming handler instead of retained alerts: long runs stay at
  // constant memory. Every judging thread publishes into the sink, which
  // calls the handler under its own lock, so the handler needs none.
  fleet.alerts().set_handler(
      [&alerts_file, quiet](const engine::FleetAlert& alert) {
        if (alerts_file) *alerts_file << serve::to_json_line(alert) << '\n';
        if (!quiet) print_alert(alert.stream.c_str(), alert.verdict);
      });

  // Stream keys: bare filenames, unless two captures share one (e.g. the
  // same log name under two fleet directories) — then full paths, so
  // alerts stay attributable.
  std::set<std::string> names;
  bool name_collision = false;
  for (const std::filesystem::path& path : paths) {
    if (!names.insert(path.filename().string()).second) {
      name_collision = true;
    }
  }
  std::vector<engine::NamedSource> sources;
  sources.reserve(paths.size());
  for (const std::filesystem::path& path : paths) {
    sources.push_back(engine::NamedSource{
        name_collision ? path.string() : path.filename().string(),
        trace::open_trace_source(path),
        {}});
  }

  const auto started = std::chrono::steady_clock::now();
  engine::FleetRunResult run =
      engine::run_fleet(fleet, std::move(sources), producers);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  for (const auto& [key, message] : run.errors) {
    std::fprintf(stderr, "error: %s: %s\n", key.c_str(), message.c_str());
  }

  util::Table table({"stream", "shard", "frames", "windows", "alerts",
                     "parse errs", "dropped", "q-dropped"});
  for (const engine::StreamResult& stream : run.streams) {
    table.add_row({stream.key, std::to_string(stream.shard),
                   std::to_string(stream.counters.frames),
                   std::to_string(stream.counters.windows_closed),
                   std::to_string(stream.counters.alerts),
                   std::to_string(stream.counters.parse_errors),
                   std::to_string(stream.counters.dropped_frames),
                   std::to_string(stream.counters.queue_dropped)});
  }
  table.print(std::cout);

  const ids::PipelineCounters& totals = fleet.totals();
  std::printf(
      "%zu streams on %d shards (detector=%s, generation=%llu): %llu "
      "frames, %llu windows, %llu alerts in %.2fs (%.0f frames/s)\n",
      run.streams.size(), fleet.shards(), detector_name.c_str(),
      static_cast<unsigned long long>(fleet.model_generation()),
      static_cast<unsigned long long>(totals.frames),
      static_cast<unsigned long long>(totals.windows_closed),
      static_cast<unsigned long long>(totals.alerts), elapsed,
      elapsed > 0 ? static_cast<double>(totals.frames) / elapsed : 0.0);
  if (totals.parse_errors > 0 || totals.dropped_frames > 0 ||
      totals.queue_dropped > 0) {
    std::printf(
        "ingest: %llu malformed lines skipped, %llu frames dropped, %llu "
        "queue-dropped\n",
        static_cast<unsigned long long>(totals.parse_errors),
        static_cast<unsigned long long>(totals.dropped_frames),
        static_cast<unsigned long long>(totals.queue_dropped));
  }
  if (alerts_file) {
    alerts_file->flush();
    if (!*alerts_file) {
      std::fprintf(stderr, "%s: write failed\n", alerts_out->c_str());
      return 66;
    }
    std::printf("alerts -> %s\n", alerts_out->c_str());
  }
  if (metrics_out) {
    fleet.publish_metrics();
    std::ofstream out(*metrics_out, std::ios::out | std::ios::trunc);
    out << telemetry::to_prometheus_text(*config.metrics);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "%s: cannot write exposition\n",
                   metrics_out->c_str());
      return 66;
    }
    if (!quiet) std::printf("metrics -> %s\n", metrics_out->c_str());
  }
  if (!run.errors.empty()) return 65;
  return totals.alerts > 0 ? 2 : 0;
}

// ---------------------------------------------------------------------------
// Live service: `canids serve` wraps a FleetEngine in a socket front door
// (src/serve), `canids send` replays a capture into it, and `canids ctl`
// speaks the one-line control protocol.

/// The running server, published for the signal handlers. Only valid while
/// cmd_serve is inside ServeServer::run().
std::atomic<serve::ServeServer*> g_serve_server{nullptr};

extern "C" void serve_signal_handler(int signum) {
  // Async-signal-safe: atomic load + ServeServer::post_* (one write(2) to a
  // self-pipe each).
  serve::ServeServer* server = g_serve_server.load(std::memory_order_acquire);
  if (server == nullptr) return;
  if (signum == SIGHUP) {
    server->post_reload();
  } else if (signum == SIGUSR1) {
    server->post_status();
  } else {
    server->post_shutdown();
  }
}

int cmd_serve(const std::string& models_path, std::vector<std::string> args) {
  const auto models = load_models(models_path);
  if (!models) return 66;
  const auto [detector_name, options] = parse_detection_flags(args, *models);
  engine::FleetConfig config = parse_engine_flags(args);
  const std::string on_full =
      arg_string(args, "--on-full").value_or("block");
  if (on_full == "block") {
    config.on_full = engine::BackpressurePolicy::kBlock;
  } else if (on_full == "drop-newest") {
    config.on_full = engine::BackpressurePolicy::kDropNewest;
  } else {
    throw UsageError{"--on-full expects block or drop-newest"};
  }

  serve::ServeConfig serve_config;
  serve_config.models_path = models_path;
  serve_config.uds_path = arg_string(args, "--uds").value_or("");
  if (const auto port = arg_integer(args, "--port", 0, 65535)) {
    serve_config.tcp_port = static_cast<int>(*port);
  }
  serve_config.tcp_host = arg_string(args, "--host").value_or("127.0.0.1");
  serve_config.control_path = arg_string(args, "--control").value_or("");
  serve_config.alerts_out = arg_string(args, "--alerts-out").value_or("");
  if (const auto max_line = arg_integer(args, "--max-line", 64, 1 << 20)) {
    serve_config.max_line = static_cast<std::size_t>(*max_line);
  }
  const auto events_out = arg_string(args, "--events-out");
  const bool quiet = arg_flag(args, "--quiet");
  reject_leftovers(args);
  // The daemon always carries a registry — METRICS must answer whether or
  // not latency sampling is on (counters/gauges fold at scrape time).
  config.metrics = std::make_shared<telemetry::MetricsRegistry>();
  std::shared_ptr<telemetry::EventLog> events;
  if (events_out) {
    events = std::make_shared<telemetry::EventLog>(*events_out);
    config.events = events;
  }

  if (serve_config.uds_path.empty() && serve_config.tcp_port < 0) {
    throw UsageError{
        "serve needs at least one data listener: --uds PATH and/or --port N"};
  }

  engine::FleetEngine fleet(make_backend_or_usage(detector_name, options),
                            config);
  serve::ServeServer server(fleet, serve_config);
  if (!quiet) {
    if (!serve_config.uds_path.empty()) {
      std::printf("listening on unix:%s\n", serve_config.uds_path.c_str());
    }
    if (server.tcp_port() >= 0) {
      std::printf("listening on %s:%d\n", serve_config.tcp_host.c_str(),
                  server.tcp_port());
    }
    if (!serve_config.control_path.empty()) {
      std::printf("control socket unix:%s\n",
                  serve_config.control_path.c_str());
    }
    if (events_out) {
      std::printf("events -> %s\n", events_out->c_str());
    }
    std::printf(
        "detector=%s shards=%d on-full=%s — SIGHUP reloads models, SIGUSR1 "
        "dumps status, SIGINT/SIGTERM shut down\n",
        detector_name.c_str(), fleet.shards(), on_full.c_str());
    std::fflush(stdout);
  }

  fleet.start();
  g_serve_server.store(&server, std::memory_order_release);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::signal(SIGHUP, serve_signal_handler);
  std::signal(SIGUSR1, serve_signal_handler);
  std::signal(SIGPIPE, SIG_IGN);  // slow subscribers must not kill the daemon

  server.run();

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGHUP, SIG_DFL);
  std::signal(SIGUSR1, SIG_DFL);
  g_serve_server.store(nullptr, std::memory_order_release);

  // run() closed every stream; finish() drains the queues (alerts emitted
  // here still reach the sinks) and joins the workers.
  const std::vector<engine::StreamResult> streams = fleet.finish();
  // A full disk fails the writes, not the opens: report each lost sink
  // like `fleet --alerts-out` does, after the summary.
  const bool alerts_written = server.flush_alerts();
  if (events) events->flush();

  if (!quiet) {
    const ids::PipelineCounters& totals = fleet.totals();
    const serve::ServeStats stats = server.stats();
    std::printf(
        "served %llu connections, %llu streams: %llu frames, %llu windows, "
        "%llu alerts, %llu reloads\n",
        static_cast<unsigned long long>(stats.connections),
        static_cast<unsigned long long>(stats.streams_opened),
        static_cast<unsigned long long>(totals.frames),
        static_cast<unsigned long long>(totals.windows_closed),
        static_cast<unsigned long long>(totals.alerts),
        static_cast<unsigned long long>(stats.reloads));
    if (totals.parse_errors > 0 || totals.queue_dropped > 0 ||
        stats.subscriber_dropped > 0) {
      std::printf(
          "ingest: %llu malformed lines, %llu frames queue-dropped, %llu "
          "subscriber lines dropped\n",
          static_cast<unsigned long long>(totals.parse_errors),
          static_cast<unsigned long long>(totals.queue_dropped),
          static_cast<unsigned long long>(stats.subscriber_dropped));
    }
  }
  (void)streams;
  if (!alerts_written) {
    std::fprintf(stderr, "%s: write failed\n",
                 serve_config.alerts_out.c_str());
  }
  if (events && !events->ok()) {
    std::fprintf(stderr, "%s: write failed\n", events_out->c_str());
  }
  return alerts_written && (!events || events->ok()) ? 0 : 66;
}

int cmd_send(const std::string& trace_path, std::vector<std::string> args) {
  const auto addr = arg_string(args, "--addr");
  if (!addr) {
    throw UsageError{
        "send needs --addr (a unix socket path containing '/' or host:port)"};
  }
  serve::SendOptions options;
  options.key = arg_string(args, "--key").value_or("");
  if (const auto speed = arg_number(args, "--speed")) {
    if (*speed < 0.0) {
      throw UsageError{"--speed expects >= 0 (0 = unpaced)"};
    }
    options.speed = *speed;
  }
  if (const auto wire = arg_string(args, "--wire")) {
    if (*wire == "text") {
      options.wire = serve::SendWire::kText;
    } else if (*wire == "binary") {
      options.wire = serve::SendWire::kBinary;
    } else if (*wire == "auto") {
      options.wire = serve::SendWire::kAuto;
    } else {
      throw UsageError{"--wire expects text, binary, or auto"};
    }
  }
  const bool quiet = arg_flag(args, "--quiet");
  reject_leftovers(args);

  const auto started = std::chrono::steady_clock::now();
  const serve::SendStats stats =
      serve::send_trace(*addr, trace_path, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  if (!quiet) {
    std::printf("%llu frames (%llu bytes) -> %s in %.2fs (%.0f frames/s)\n",
                static_cast<unsigned long long>(stats.frames),
                static_cast<unsigned long long>(stats.bytes), addr->c_str(),
                elapsed,
                elapsed > 0 ? static_cast<double>(stats.frames) / elapsed
                            : 0.0);
  }
  return 0;
}

int cmd_ctl(const std::string& addr, const std::vector<std::string>& words) {
  if (words.empty()) {
    throw UsageError{
        "usage: canids ctl <control-socket> "
        "STATUS|METRICS|RELOAD [path]|SHUTDOWN"};
  }
  std::string command;
  for (const std::string& word : words) {
    if (!command.empty()) command.push_back(' ');
    command += word;
  }
  command.push_back('\n');
  // Every command answers one line, except METRICS: a multi-line
  // Prometheus exposition terminated by a "# EOF" marker line (the
  // connection stays open, so the marker — not EOF — ends the reply).
  const bool multiline = words.front() == "METRICS";

  const int fd = serve::connect_addr(addr);
  std::string reply;
  try {
    const char* data = command.data();
    std::size_t remaining = command.size();
    while (remaining > 0) {
      const ssize_t sent = ::send(fd, data, remaining, MSG_NOSIGNAL);
      if (sent > 0) {
        data += sent;
        remaining -= static_cast<std::size_t>(sent);
        continue;
      }
      if (sent < 0 && errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    char buf[4096];
    for (;;) {
      const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
      if (got > 0) {
        reply.append(buf, static_cast<std::size_t>(got));
        if (multiline) {
          if (reply.rfind("error", 0) == 0 &&
              reply.find('\n') != std::string::npos) {
            break;  // an old daemon rejecting the verb answers one line
          }
          if (reply.find("# EOF\n") != std::string::npos) break;
        } else if (reply.find('\n') != std::string::npos) {
          break;
        }
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      if (got == 0) break;  // daemon closed (e.g. right after SHUTDOWN)
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  if (multiline && reply.rfind("error", 0) != 0) {
    // Print the exposition as-is, without the protocol's EOF marker.
    if (const std::size_t marker = reply.find("# EOF\n");
        marker != std::string::npos) {
      reply.resize(marker);
    }
    std::fputs(reply.c_str(), stdout);
    return 0;
  }
  if (const std::size_t newline = reply.find('\n');
      newline != std::string::npos) {
    reply.resize(newline);
  }
  std::printf("%s\n", reply.c_str());
  return reply.rfind("error", 0) == 0 ? 65 : 0;
}

int cmd_simulate(const std::string& out_path, std::vector<std::string> args) {
  const double seconds = arg_seconds(args, "--seconds").value_or(20.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(
      arg_integer(args, "--seed", 0, 9007199254740992LL).value_or(42));
  const std::string behavior_name =
      arg_string(args, "--behavior").value_or("city");
  const std::optional<std::string> attack_name = arg_string(args, "--attack");
  const double frequency = arg_number(args, "--freq").value_or(100.0);
  reject_leftovers(args);

  trace::DrivingBehavior behavior = trace::DrivingBehavior::kCity;
  bool found = false;
  for (trace::DrivingBehavior b : trace::kAllBehaviors) {
    if (trace::behavior_name(b) == behavior_name) {
      behavior = b;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown behavior '%s' (try:", behavior_name.c_str());
    for (trace::DrivingBehavior b : trace::kAllBehaviors) {
      std::fprintf(stderr, " %s", std::string(trace::behavior_name(b)).c_str());
    }
    std::fprintf(stderr, ")\n");
    return 65;
  }

  const trace::SyntheticVehicle vehicle;
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, behavior, seed);

  if (attack_name) {
    const auto kind = campaign::scenario_from_token(*attack_name);
    if (!kind) {
      std::fprintf(stderr, "unknown attack '%s' (try:",
                   attack_name->c_str());
      for (const attacks::ScenarioKind k : attacks::kAllScenarios) {
        std::fprintf(stderr, " %s",
                     std::string(attacks::scenario_token(k)).c_str());
      }
      std::fprintf(stderr, ")\n");
      return 65;
    }
    attacks::AttackConfig attack_config;
    attack_config.frequency_hz = frequency;
    attack_config.start = util::from_seconds(seconds * 0.25);
    attack_config.stop = util::from_seconds(seconds * 0.75);
    auto attack =
        attacks::make_scenario(*kind, vehicle, attack_config, util::Rng(seed));
    std::printf("attack: %s",
                std::string(attacks::scenario_name(*kind)).c_str());
    if (!attack.planned_ids.empty()) {
      std::printf(" IDs:");
      for (std::uint32_t id : attack.planned_ids) std::printf(" %03X", id);
    }
    if (!attack.victim_node.empty()) {
      std::printf(" victim: %s", attack.victim_node.c_str());
    }
    std::printf(" active %.1fs..%.1fs at %.0f Hz\n", seconds * 0.25,
                seconds * 0.75, frequency);
    attacks::attach_attack(bus, attack);
  }

  trace::TraceRecorder recorder(bus, "can0");
  bus.run_until(util::from_seconds(seconds));
  if (!saved([&] {
        trace::save_trace_file(out_path, recorder.trace(),
                               trace::TraceFormat::kCandump);
      })) {
    return 66;
  }
  std::printf("%zu frames -> %s (bus load %.0f%%)\n", recorder.trace().size(),
              out_path.c_str(), bus.stats().load() * 100.0);
  return 0;
}

/// Split a comma-separated flag value ("a,b,c") into its items.
std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string item =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    if (!item.empty()) items.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

std::vector<double> parse_number_list(const std::string& value,
                                      const std::string& flag) {
  std::vector<double> numbers;
  for (const std::string& item : split_list(value)) {
    try {
      std::size_t used = 0;
      numbers.push_back(std::stod(item, &used));
      if (used != item.size()) throw std::invalid_argument("trail");
    } catch (const std::exception&) {
      throw UsageError{"invalid value '" + item + "' in " + flag};
    }
  }
  return numbers;
}

void print_cell_table(const campaign::CampaignReport& report) {
  util::Table table({"detector", "scenario", "rate Hz", "Dr", "TPR", "FPR",
                     "F1", "AUC", "latency s", "infer"});
  for (const campaign::CampaignCell& cell : report.cells) {
    table.add_row(
        {cell.detector,
         !cell.capture.empty()
             ? cell.capture
             : cell.sweep_id
                   ? "id " + std::to_string(*cell.sweep_id)
                   : std::string(campaign::scenario_token(cell.kind)),
         util::Table::num(cell.frequency_hz, 0),
         util::Table::percent(cell.detection_rate),
         util::Table::percent(cell.tpr), util::Table::percent(cell.fpr),
         util::Table::num(cell.f1, 3), util::Table::num(cell.auc, 3),
         cell.mean_latency_seconds
             ? util::Table::num(*cell.mean_latency_seconds, 2)
             : std::string("--"),
         cell.inference_accuracy
             ? util::Table::percent(*cell.inference_accuracy)
             : std::string("--")});
  }
  table.print(std::cout);
}

int cmd_campaign_merge(std::vector<std::string> args) {
  const bool quiet = arg_flag(args, "--quiet");
  if (args.size() < 2) {
    throw UsageError{"usage: canids campaign merge <out-dir> <partial>..."};
  }
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      throw UsageError{"unknown or misplaced argument '" + arg + "'"};
    }
  }
  const std::string out_dir = args.front();
  std::vector<campaign::PartialReport> partials;
  partials.reserve(args.size() - 1);
  for (std::size_t i = 1; i < args.size(); ++i) {
    partials.push_back(campaign::PartialReport::load_file(args[i]));
  }
  const campaign::CampaignReport report =
      campaign::merge_partials(std::move(partials));
  if (!quiet) print_cell_table(report);
  if (!saved([&] { report.write_all(out_dir); })) return 66;
  std::printf("merged %zu partials: %zu trials, %zu cells -> "
              "%s/{trials.csv, cells.csv, roc.csv, report.json}\n",
              args.size() - 1, report.trials.size(), report.cells.size(),
              out_dir.c_str());
  return 0;
}

int cmd_campaign(std::vector<std::string> args) {
  if (!args.empty() && args.front() == "merge") {
    args.erase(args.begin());
    return cmd_campaign_merge(std::move(args));
  }
  // Base spec: --smoke preset, a JSON spec file, or the defaults; grid
  // flags below override whichever base was chosen.
  campaign::CampaignSpec spec;
  const bool smoke = arg_flag(args, "--smoke");
  if (smoke) {
    spec = campaign::CampaignSpec::smoke();
  }
  if (!args.empty() && args.front().rfind("--", 0) != 0) {
    if (smoke) {
      throw UsageError{
          "--smoke is a built-in preset and cannot be combined with a "
          "spec file"};
    }
    const std::string spec_path = args.front();
    args.erase(args.begin());
    std::ifstream in(spec_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", spec_path.c_str());
      return 66;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    spec = campaign::CampaignSpec::from_json(text);
  }

  if (const auto detectors = arg_string(args, "--detectors")) {
    spec.detectors = split_list(*detectors);
  }
  if (const auto scenarios = arg_string(args, "--scenarios")) {
    spec.scenarios.clear();
    for (const std::string& token : split_list(*scenarios)) {
      const auto kind = campaign::scenario_from_token(token);
      if (!kind) {
        std::string known;
        for (const attacks::ScenarioKind k : attacks::kAllScenarios) {
          if (!known.empty()) known += '|';
          known += std::string(attacks::scenario_token(k));
        }
        throw UsageError{"unknown scenario '" + token + "' (" + known + ")"};
      }
      spec.scenarios.push_back(*kind);
    }
  }
  if (const auto ids = arg_string(args, "--ids")) {
    spec.sweep_ids.clear();
    for (const std::string& item : split_list(*ids)) {
      // Decimal, or hex after 0x; a sign never wraps into a valid ID.
      std::string_view digits = item;
      int base = 10;
      if (digits.starts_with("0x") || digits.starts_with("0X")) {
        digits.remove_prefix(2);
        base = 16;
      }
      std::uint32_t id = 0;
      if (!util::parse_digits_strict(digits, id, base)) {
        throw UsageError{"invalid identifier '" + item + "' in --ids"};
      }
      spec.sweep_ids.push_back(id);
    }
  }
  if (const auto rates = arg_string(args, "--rates")) {
    spec.rates_hz = parse_number_list(*rates, "--rates");
  }
  if (const auto seeds = arg_integer(args, "--seeds", 1, 1000000)) {
    spec.seeds = static_cast<int>(*seeds);
  }
  if (const auto seed = arg_integer(args, "--seed", 0, 9007199254740992LL)) {
    spec.experiment.seed = static_cast<std::uint64_t>(*seed);
  }
  parse_windowing(args, spec.experiment.pipeline, spec.experiment.muter);
  if (const auto lead_in = arg_seconds(args, "--lead-in")) {
    spec.experiment.clean_lead_in = util::from_seconds(*lead_in);
  }
  if (const auto duration = arg_seconds(args, "--duration")) {
    spec.experiment.attack_duration = util::from_seconds(*duration);
  }
  if (const auto training = arg_integer(args, "--training-windows", 2, 1000000)) {
    spec.experiment.training_windows = static_cast<std::size_t>(*training);
  }
  if (const auto workers = arg_integer(args, "--workers", 0, 4096)) {
    spec.workers = static_cast<int>(*workers);
  }
  if (const auto shard = arg_string(args, "--shard")) {
    try {
      spec.shard = campaign::ShardSelector::parse(*shard);
    } catch (const std::exception& e) {
      throw UsageError{e.what()};
    }
  }
  if (const auto models = arg_models(args)) spec.model_path = *models;
  if (const auto captures = arg_string(args, "--captures")) {
    spec.capture_dir = *captures;
  }
  if (const auto labels = arg_string(args, "--labels")) {
    spec.labels_path = *labels;
  }
  const auto save_models = arg_string(args, "--save-models");
  const auto out_dir = arg_string(args, "--out");
  const bool quiet = arg_flag(args, "--quiet");
  reject_leftovers(args);
  if (spec.shard && !out_dir) {
    throw UsageError{"--shard writes a partial-report file: pass --out PATH "
                     "(then `canids campaign merge` reassembles the shards)"};
  }

  campaign::CampaignRunner runner(std::move(spec));
  if (runner.spec().capture_mode()) {
    if (runner.spec().model_path.empty()) {
      // Scoring recorded traffic with models trained on the built-in
      // synthetic vehicle is only meaningful when the captures ARE
      // synthetic-vehicle recordings — say so instead of emitting
      // legitimate-looking but baseless cells for a real dataset.
      std::fprintf(stderr,
                   "warning: no --model bundle given — detector models will "
                   "be trained on the built-in synthetic vehicle, which is "
                   "only meaningful if these captures were recorded from it. "
                   "For real datasets, train on clean recordings first "
                   "(`canids train bundle.canids clean...`) and pass "
                   "--model.\n");
    }
    std::printf("campaign '%s': %zu trials (%zu detectors x %zu recorded "
                "captures)\n",
                runner.spec().name.c_str(), runner.spec().trial_count(),
                runner.spec().detectors.size(),
                runner.spec().captures.size());
  } else {
    std::printf("campaign '%s': %zu trials (%zu detectors x %zu %s x %zu "
                "rates x %d seeds)\n",
                runner.spec().name.c_str(), runner.spec().trial_count(),
                runner.spec().detectors.size(),
                runner.spec().sweep_ids.empty()
                    ? runner.spec().scenarios.size()
                    : runner.spec().sweep_ids.size(),
                runner.spec().sweep_ids.empty() ? "scenarios" : "IDs",
                runner.spec().rates_hz.size(), runner.spec().seeds);
  }
  if (runner.spec().shard) {
    std::printf("  shard %s: this process runs %zu of those trials\n",
                runner.spec().shard->to_string().c_str(),
                runner.spec().sharded_plan().size());
  }

  // Sharded execution: run the slice, persist the mergeable partial, and
  // keep the stats line (CI greps "training passes: 0" on cold starts).
  std::optional<campaign::PartialReport> partial;
  std::optional<campaign::CampaignReport> report;
  if (runner.spec().shard) {
    partial = runner.run_shard();
  } else {
    report = runner.run();
    if (!quiet) print_cell_table(*report);
  }

  const campaign::CampaignRunStats& stats = runner.stats();
  std::printf("%zu trials on %d workers in %.2fs (%.2f trials/s, training "
              "%.2fs, training passes: %llu)\n",
              stats.trials, stats.workers, stats.wall_seconds,
              stats.trials_per_second(), stats.train_seconds,
              static_cast<unsigned long long>(stats.training_passes));

  if (save_models) {
    if (!saved([&] {
          model::save_models_file(*save_models, runner.models());
        })) {
      return 66;
    }
    std::printf("models -> %s\n", save_models->c_str());
  }
  if (partial) {
    if (!saved([&] { partial->save_file(*out_dir); })) return 66;
    std::printf("shard %s (%zu of %zu trials) -> %s\n",
                partial->shard.to_string().c_str(), partial->rows.size(),
                partial->spec.trial_count(), out_dir->c_str());
  } else if (out_dir) {
    if (!saved([&] { report->write_all(*out_dir); })) return 66;
    std::printf("report -> %s/{trials.csv, cells.csv, roc.csv, report.json}\n",
                out_dir->c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string command = args.front();
  args.erase(args.begin());

  try {
    if (command == "info" && args.size() == 1) {
      return cmd_info(args[0]);
    }
    if (command == "convert") {
      if (args.size() < 2 || args[0].rfind("--", 0) == 0 ||
          args[1].rfind("--", 0) == 0) {
        throw UsageError{
            "usage: canids convert <in> <out> [--to candump|vspy|binary]"};
      }
      return cmd_convert(args[0], args[1], {args.begin() + 2, args.end()});
    }
    if (command == "detectors") {
      if (!args.empty()) {
        throw UsageError{"`canids detectors` takes no arguments"};
      }
      return cmd_detectors();
    }
    if (command == "models") {
      if (args.size() != 2 || args[0] != "inspect") {
        throw UsageError{"usage: canids models inspect <bundle>"};
      }
      return cmd_models_inspect(args[1]);
    }
    if (command == "train") {
      // `train --save PATH clean...` or the positional `train PATH clean...`.
      const auto save = arg_string(args, "--save");
      if (save && !args.empty()) {
        return cmd_train(*save, args);
      }
      if (!save && args.size() >= 2) {
        return cmd_train(args[0], {args.begin() + 1, args.end()});
      }
      return usage();
    }
    if (command == "detect") {
      const auto tpl = arg_models(args);
      if (tpl && !args.empty()) {
        if (args[0].rfind("--", 0) == 0) {
          throw UsageError{"with --model/--template, the capture path must "
                           "come before other flags"};
        }
        return cmd_detect(*tpl, args[0], {args.begin() + 1, args.end()});
      }
      if (!tpl && args.size() >= 2) {
        return cmd_detect(args[0], args[1], {args.begin() + 2, args.end()});
      }
      return usage();
    }
    if (command == "fleet" && !args.empty()) {
      const auto template_flag = arg_models(args);
      std::string tpl;
      std::size_t first_input = 0;
      if (template_flag) {
        tpl = *template_flag;
      } else {
        tpl = args[0];
        first_input = 1;
      }
      std::vector<std::string> inputs;
      std::vector<std::string> flags;
      for (std::size_t i = first_input; i < args.size(); ++i) {
        // Flags (and their values) start at the first "--" argument.
        if (args[i].rfind("--", 0) == 0) {
          flags.assign(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.end());
          break;
        }
        inputs.push_back(args[i]);
      }
      if (inputs.empty()) {
        if (template_flag) {
          throw UsageError{"with --model/--template, capture paths must "
                           "come before other flags"};
        }
        return usage();
      }
      return cmd_fleet(tpl, inputs, std::move(flags));
    }
    if (command == "serve") {
      if (const auto model_flag = arg_models(args)) {
        return cmd_serve(*model_flag, std::move(args));
      }
      if (!args.empty() && args[0].rfind("--", 0) != 0) {
        return cmd_serve(args[0], {args.begin() + 1, args.end()});
      }
      return usage();
    }
    if (command == "send" && !args.empty() &&
        args[0].rfind("--", 0) != 0) {
      return cmd_send(args[0], {args.begin() + 1, args.end()});
    }
    if (command == "ctl" && !args.empty()) {
      return cmd_ctl(args[0], {args.begin() + 1, args.end()});
    }
    if (command == "campaign") {
      return cmd_campaign(std::move(args));
    }
    if (command == "simulate" && !args.empty()) {
      const std::string out = args[0];
      return cmd_simulate(out, {args.begin() + 1, args.end()});
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.message.c_str());
    print_usage(stderr);
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 65;  // EX_DATAERR
  }
  return usage();
}
