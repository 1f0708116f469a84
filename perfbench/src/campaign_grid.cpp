// campaign_grid: an in-process CampaignRunner over a fixed 64-trial grid,
// {bit-entropy, symbol-entropy, interval, ensemble} x {single, multi3,
// flood, suspend} x {100, 20} Hz x 8 seeds (256 trials), with workers =
// nproc.
//
//   perfbench campaign-run --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Set-up is model training (CampaignRunner::models()), repeated three
// times. The timed part repeats run() until --seconds have passed. A
// single-worker, trial-by-trial replay of the same plan must then aggregate
// to the same report bytes. The traced run replays on nproc workers instead
// (trial times, worker busy share) and times the simulator, inference, pair
// tracking and each backend on recorded campaign traffic, from outside,
// through their public functions.
#include <algorithm>
#include <atomic>
#include <sstream>
#include <vector>

#include "attacks/scenario.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "can/arbitration.h"
#include "can/bitstream.h"
#include "can/bus.h"
#include "common.h"
#include "ids/inference.h"
#include "ids/pipeline.h"
#include "metrics/experiment.h"
#include "spans.h"
#include "util/rng.h"

namespace perfbench {

namespace cn = canids;

namespace {

using cn::attacks::ScenarioKind;

const std::vector<std::string> kDetectors = {"bit-entropy", "symbol-entropy",
                                             "interval", "ensemble"};
const std::vector<ScenarioKind> kScenarios = {
    ScenarioKind::kSingle, ScenarioKind::kMulti3, ScenarioKind::kFlood,
    ScenarioKind::kSuspend};
const std::vector<double> kRates = {100.0, 20.0};

cn::campaign::CampaignSpec grid_spec(std::uint64_t seed, int workers) {
  cn::campaign::CampaignSpec spec;
  spec.name = "campaign_grid";
  spec.detectors = kDetectors;
  spec.scenarios = kScenarios;
  spec.rates_hz = kRates;
  // Eight seeds a cell (the grid is 256 trials) and 5 s attacks after the
  // 3 s clean lead-in: enough trials that one run's rate does not hinge on
  // a few heavy ones, short enough that the single-worker replay is quick.
  spec.seeds = 8;
  spec.experiment.seed = mix_seed(seed, 2000);
  spec.experiment.attack_duration = 5 * cn::util::kSecond;
  spec.workers = workers;
  return spec;
}

std::string report_bytes(const cn::campaign::CampaignReport& report) {
  std::ostringstream out;
  report.write_json(out);
  return out.str();
}

std::vector<cn::can::TimedId> ids_of(
    const std::vector<cn::can::TimedFrame>& frames) {
  std::vector<cn::can::TimedId> ids;
  ids.reserve(frames.size());
  for (const cn::can::TimedFrame& frame : frames) {
    ids.push_back(cn::can::TimedId{frame.timestamp, frame.frame.id()});
  }
  return ids;
}

/// The plan replayed trial by trial through the same calls a runner worker
/// makes (ExperimentRunner::run_instrumented_trial, then make_report), on
/// `workers` threads, so each trial's wall time is seen. The report it
/// aggregates to must equal run()'s byte for byte.
struct Replay {
  std::vector<double> trial_ms;
  double trial_ms_sum = 0.0;
  double busy_frac = 0.0;
  double report_ms = 0.0;
};

Replay replay_trials(const cn::campaign::CampaignSpec& spec,
                     const cn::metrics::SharedModels& models,
                     const std::string& untraced_report, int workers) {
  SpanRecorder& spans = SpanRecorder::instance();
  const std::uint32_t trial_name = spans.name("campaign.trial");
  const std::vector<cn::campaign::TrialPlan> plan = spec.plan();
  std::vector<cn::metrics::InstrumentedTrial> trials(plan.size());
  std::vector<double> trial_ns(plan.size());
  const std::uint64_t root = spans.open();
  std::atomic<std::size_t> next{0};
  const std::int64_t run_start = now_ns();
  run_threads(workers, [&] {
    cn::metrics::ExperimentRunner runner(spec.experiment);
    runner.adopt_models(models);
    for (std::size_t i = next++; i < plan.size(); i = next++) {
      const std::int64_t start = now_ns();
      trials[i] = runner.run_instrumented_trial(
          plan[i].detector, plan[i].kind, plan[i].frequency_hz,
          plan[i].trial_seed);
      const std::int64_t end = now_ns();
      trial_ns[i] = static_cast<double>(end - start);
      spans.record(trial_name, root, start, end, 1);
    }
  });
  const std::int64_t run_end = now_ns();
  const cn::campaign::CampaignReport report =
      cn::campaign::make_report(spec, std::move(trials));
  const std::int64_t report_end = now_ns();
  check(report_bytes(report) == untraced_report,
        "campaign_grid: the " + std::to_string(workers) +
            "-worker replay report differs from run()");
  spans.record(spans.name("campaign.report"), root, run_end, report_end, 1);
  Span run_span;
  run_span.id = root;
  run_span.name = spans.name("campaign.run");
  run_span.start_ns = run_start;
  run_span.end_ns = report_end;
  run_span.count = plan.size();
  spans.record(run_span);

  Replay out;
  for (double ns : trial_ns) {
    out.trial_ms.push_back(ns * 1e-6);
    out.trial_ms_sum += ns * 1e-6;
  }
  out.busy_frac = out.trial_ms_sum * 1e6 /
                  (static_cast<double>(run_end - run_start) * workers);
  out.report_ms = static_cast<double>(report_end - run_end) * 1e-6;
  return out;
}

/// The per-layer measurements of a traced run.
void trace_layers(const cn::campaign::CampaignSpec& spec,
                  const cn::metrics::SharedModels& models,
                  const Replay& replay, Result& result) {
  SpanRecorder& spans = SpanRecorder::instance();

  // -- can: one bus run per (scenario, rate) cell, as a trial drives it.
  cn::metrics::ExperimentRunner runner(spec.experiment);
  runner.adopt_models(models);
  const cn::trace::SyntheticVehicle& vehicle = runner.vehicle();
  const std::uint64_t probe = spans.open();
  const std::int64_t probe_start = now_ns();
  const std::uint32_t sim_name = spans.name("can.sim");
  struct Recorded {
    ScenarioKind kind;
    double rate;
    std::vector<cn::can::TimedFrame> frames;
  };
  std::vector<Recorded> recorded;
  std::uint64_t cell = 0;
  for (ScenarioKind kind : kScenarios) {
    for (double rate : kRates) {
      cn::attacks::AttackConfig attack;
      attack.frequency_hz = rate;
      attack.start = spec.experiment.clean_lead_in;
      attack.stop = attack.start + spec.experiment.attack_duration;
      const std::int64_t start = now_ns();
      cn::can::BusSimulator bus(vehicle.config().bus);
      vehicle.attach_to(
          bus, cn::trace::kAllBehaviors[cell % cn::trace::kAllBehaviors.size()],
          mix_seed(spec.experiment.seed, 300 + cell));
      cn::attacks::BuiltAttack built = cn::attacks::make_scenario(
          kind, vehicle, attack, cn::util::Rng(mix_seed(spec.experiment.seed, 400 + cell)));
      cn::attacks::attach_attack(bus, built);
      Recorded rec{kind, rate, {}};
      bus.add_listener([&rec](const cn::can::TimedFrame& frame) {
        rec.frames.push_back(frame);
      });
      bus.run_until(attack.stop);
      spans.record(sim_name, probe, start, now_ns(), rec.frames.size());
      recorded.push_back(std::move(rec));
      ++cell;
    }
  }
  const double sim_ns = static_cast<double>(spans.total_ns(sim_name));
  const double sim_frames = static_cast<double>(spans.item_count(sim_name));
  result.num("sim_us_per_frame", sim_ns / sim_frames * 1e-3);
  result.num("sim_share",
             (sim_ns * 1e-6 / static_cast<double>(recorded.size())) /
                 (replay.trial_ms_sum /
                  static_cast<double>(replay.trial_ms.size())));

  constexpr std::size_t kMicroFrames = 20'000;
  std::vector<cn::can::Frame> frames;
  for (const Recorded& rec : recorded) {
    for (const cn::can::TimedFrame& frame : rec.frames) {
      if (frames.size() < kMicroFrames) frames.push_back(frame.frame);
    }
  }
  {
    std::size_t bits = 0;
    const std::int64_t start = now_ns();
    for (const cn::can::Frame& frame : frames) {
      bits += cn::can::serialize(frame).stuffed.size();
    }
    const std::int64_t end = now_ns();
    check(bits > 0, "campaign_grid: serialize produced no bits");
    spans.record(spans.name("can.serialize"), probe, start, end, frames.size());
    result.num("serialize_us_per_frame",
               static_cast<double>(end - start) * 1e-3 /
                   static_cast<double>(frames.size()));
  }
  {
    constexpr std::size_t kContenders = 8;
    std::size_t rounds = 0;
    std::size_t winners = 0;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i + kContenders <= frames.size(); i += kContenders) {
      winners += cn::can::arbitrate(
                     std::span<const cn::can::Frame>(&frames[i], kContenders))
                     .winner;
      ++rounds;
    }
    const std::int64_t end = now_ns();
    spans.record(spans.name("can.arbitrate"), probe, start, end, rounds);
    result.num("arbitrate_us_per_frame",
               static_cast<double>(end - start) * 1e-3 /
                   static_cast<double>(rounds));
    check(winners < rounds * kContenders,
          "campaign_grid: arbitration winner out of range");
  }

  // -- analysis: each backend over every recorded cell.
  std::uint64_t total_frames = 0;
  std::vector<std::vector<cn::can::TimedId>> streams;
  for (const Recorded& rec : recorded) {
    streams.push_back(ids_of(rec.frames));
    total_frames += rec.frames.size();
  }
  for (const std::string& name : kDetectors) {
    const std::uint32_t span_name = spans.name("analysis." + name);
    for (const auto& stream : streams) {
      const auto backend = runner.make_backend(name);
      std::vector<cn::analysis::WindowVerdict> verdicts;
      const std::int64_t start = now_ns();
      backend->on_frames(stream.data(), stream.size(), verdicts);
      (void)backend->finish();
      spans.record(span_name, probe, start, now_ns(), stream.size());
    }
    result.num(name + "_ns_per_frame",
               static_cast<double>(spans.total_ns(span_name)) /
                   static_cast<double>(spans.item_count(span_name)));
  }

  // -- ids: pair tracking (counting with minus without), and inference on
  // every alerted window of the multi-ID cells, against the 223-ID pool.
  const std::shared_ptr<const cn::ids::GoldenTemplate> golden = models.golden;
  std::vector<cn::ids::WindowSnapshot> alerted;
  double pairs_ns = 0.0;
  for (bool pairs : {true, false}) {
    cn::ids::PipelineConfig config = spec.experiment.pipeline;
    config.window.track_pairs = pairs;
    const std::int64_t start = now_ns();
    for (std::size_t s = 0; s < streams.size(); ++s) {
      cn::ids::IdsPipeline pipeline(golden, {}, config);
      std::vector<cn::ids::WindowReport> reports;
      pipeline.on_frames(streams[s].data(), streams[s].size(), reports);
      if (pairs && recorded[s].kind == ScenarioKind::kMulti3) {
        for (const cn::ids::WindowReport& report : reports) {
          if (report.detection.alert) alerted.push_back(report.snapshot);
        }
      }
    }
    const double elapsed = static_cast<double>(now_ns() - start);
    pairs_ns += pairs ? elapsed : -elapsed;
  }
  result.num("pairs_ns_per_frame", pairs_ns / static_cast<double>(total_frames));
  check(!alerted.empty(),
        "campaign_grid: load shape: no alerted multi-ID window to infer on");
  const cn::ids::InferenceEngine inference(golden, vehicle.id_pool(),
                                           spec.experiment.pipeline.inference);
  const std::uint32_t infer_name = spans.name("ids.infer");
  std::size_t ranked = 0;
  for (const cn::ids::WindowSnapshot& snapshot : alerted) {
    const std::int64_t start = now_ns();
    ranked += inference.infer(snapshot).ranked_candidates.size();
    spans.record(infer_name, probe, start, now_ns(), 1);
  }
  check(spans.span_count(infer_name) > 0 && ranked > 0,
        "campaign_grid: load shape: multi-ID inference spans are empty");
  result.num("infer_ms_per_alert",
             static_cast<double>(spans.total_ns(infer_name)) * 1e-6 /
                 static_cast<double>(alerted.size()));
  Span probe_span;
  probe_span.id = probe;
  probe_span.name = spans.name("layers.probe");
  probe_span.start_ns = probe_start;
  probe_span.end_ns = now_ns();
  spans.record(probe_span);
}

}  // namespace

int campaign_run(const Options& options) {
  const std::uint64_t seed = static_cast<std::uint64_t>(options.integer("seed"));
  const double seconds = options.number("seconds");
  const bool traced = options.integer("trace") != 0;
  const cn::campaign::CampaignSpec spec = grid_spec(seed, hardware_threads());

  // Set-up: train the shared models three times, keep the last runner.
  std::vector<double> setup;
  std::unique_ptr<cn::campaign::CampaignRunner> runner;
  for (int i = 0; i < 3; ++i) {
    runner = std::make_unique<cn::campaign::CampaignRunner>(spec);
    const std::int64_t start = now_ns();
    (void)runner->models();
    setup.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  std::vector<double> trials_per_s;
  std::string bytes;
  std::uint64_t attempted = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (trials_per_s.empty() || now_ns() < deadline) {
    const std::int64_t start = now_ns();
    const cn::campaign::CampaignReport report = runner->run();
    const std::int64_t end = now_ns();
    const std::string these = report_bytes(report);
    check(bytes.empty() || these == bytes,
          "campaign_grid: two runs of one spec gave different reports");
    bytes = these;
    attempted += report.trials.size();
    trials_per_s.push_back(static_cast<double>(report.trials.size()) /
                           (static_cast<double>(end - start) * 1e-9));

    if (trials_per_s.size() == 1) {
      // Load shape: multi-ID bit-entropy trials must reach inference.
      std::uint64_t inference_windows = 0;
      for (const auto& trial : report.trials) {
        if (trial.backend == "bit-entropy" &&
            trial.kind == ScenarioKind::kMulti3) {
          inference_windows += trial.inference_windows;
        }
      }
      check(inference_windows > 0,
            "campaign_grid: load shape: multi3 bit-entropy trials ran no "
            "inference");
    }
  }
  const double peak_rss = self_peak_rss_mb();

  Result result;
  result.count("attempted", attempted);
  result.count("failed", 0);
  result.list("setup_s", setup);
  result.list("trials_per_s", trials_per_s);
  result.num("peak_rss_mb", peak_rss);
  if (!traced) {
    // Correctness: a single-worker replay reproduces run()'s report bytes.
    (void)replay_trials(spec, runner->models(), bytes, 1);
  } else {
    // The traced run checks the same bytes on nproc workers instead, which
    // also yields the workers' busy share and each trial's wall time.
    const Replay replay = replay_trials(
        spec, runner->models(), bytes,
        cn::campaign::CampaignRunner::resolve_workers(spec, spec.trial_count()));
    result.list("trial_ms", replay.trial_ms);
    result.num("worker_busy_frac", replay.busy_frac);
    result.num("report_ms", replay.report_ms);
    trace_layers(spec, runner->models(), replay, result);
    SpanRecorder::instance().write_csv(options.str("spans"));
  }
  result.print();
  return 0;
}

}  // namespace perfbench
