#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/spec.h"
#include "ids/golden_template.h"
#include "metrics/experiment.h"
#include "model/bundle.h"
#include "model/store.h"
#include "trace/trace_io.h"
#include "util/json.h"
#include "util/rng.h"

namespace canids::campaign {
namespace {

// ---- spec ------------------------------------------------------------------

TEST(CampaignSpecTest, ScenarioTokensRoundTrip) {
  for (const attacks::ScenarioKind kind : attacks::kAllScenarios) {
    const auto parsed = scenario_from_token(scenario_token(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(scenario_from_token("nope").has_value());
}

TEST(CampaignSpecTest, JsonRoundTrip) {
  CampaignSpec spec;
  spec.name = "round-trip";
  // A quote, a backslash and a raw control character survive the trip and
  // are written with the escapes every JSON writer in the tree uses.
  spec.detectors = {"bit-entropy", "interval", "odd\"name\\\x01"};
  spec.scenarios = {attacks::ScenarioKind::kWeak,
                    attacks::ScenarioKind::kFlood};
  spec.rates_hz = {75.0, 12.5};
  spec.seeds = 3;
  spec.experiment.seed = 1234;
  spec.experiment.training_windows = 12;
  spec.experiment.clean_lead_in = util::from_seconds(2.5);
  spec.experiment.attack_duration = util::from_seconds(7.0);
  spec.experiment.pipeline.window.track_pairs = false;
  spec.threshold_scales = {0.0, 0.5, 1.0, 2.0};

  const std::string json = spec.to_json();
  EXPECT_NE(json.find(R"("odd\"name\\\u0001")"), std::string::npos) << json;
  const CampaignSpec restored = CampaignSpec::from_json(json);
  EXPECT_EQ(restored.name, spec.name);
  EXPECT_EQ(restored.detectors, spec.detectors);
  EXPECT_EQ(restored.scenarios, spec.scenarios);
  EXPECT_EQ(restored.rates_hz, spec.rates_hz);
  EXPECT_EQ(restored.seeds, spec.seeds);
  EXPECT_EQ(restored.experiment.seed, spec.experiment.seed);
  EXPECT_EQ(restored.experiment.training_windows,
            spec.experiment.training_windows);
  EXPECT_EQ(restored.experiment.clean_lead_in, spec.experiment.clean_lead_in);
  EXPECT_EQ(restored.experiment.attack_duration,
            spec.experiment.attack_duration);
  EXPECT_EQ(restored.experiment.pipeline.window.track_pairs,
            spec.experiment.pipeline.window.track_pairs);
  EXPECT_EQ(restored.threshold_scales, spec.threshold_scales);
}

TEST(CampaignSpecTest, SweepIdsRoundTripAndReplaceScenarios) {
  CampaignSpec spec;
  spec.sweep_ids = {0x101, 0x42A};
  const CampaignSpec restored = CampaignSpec::from_json(spec.to_json());
  EXPECT_EQ(restored.sweep_ids, spec.sweep_ids);
}

TEST(CampaignSpecTest, FromJsonBoundsNestingDepth) {
  // 200k unclosed brackets once overflowed the recursive parser's stack.
  EXPECT_THROW((void)CampaignSpec::from_json(std::string(200'000, '[')),
               util::JsonDepthError);
  const std::string nest(util::kMaxJsonDepth, '[');
  const std::string close(util::kMaxJsonDepth, ']');
  EXPECT_THROW((void)CampaignSpec::from_json("{\"name\": " + nest + close +
                                             "}"),
               util::JsonDepthError);
  // At the limit the parser recurses fine and the spec check reports the
  // value's type instead.
  const std::string at_limit(util::kMaxJsonDepth - 1, '[');
  const std::string at_limit_close(util::kMaxJsonDepth - 1, ']');
  EXPECT_THROW((void)CampaignSpec::from_json("{\"name\": " + at_limit +
                                             at_limit_close + "}"),
               std::invalid_argument);
}

TEST(CampaignSpecTest, FromJsonRejectsSecondsBeyondTheClock) {
  // 1e300 s once reached util::from_seconds's out-of-range cast.
  for (const char* key : {"lead_in_seconds", "attack_seconds",
                          "window_seconds"}) {
    EXPECT_THROW((void)CampaignSpec::from_json(std::string("{\"") + key +
                                               "\": 1e300}"),
                 std::invalid_argument)
        << key;
  }
  EXPECT_THROW((void)CampaignSpec::from_json("{\"training_windows\": 1e300}"),
               std::invalid_argument);
}

TEST(CampaignSpecTest, FromJsonRejectsMalformedInput) {
  EXPECT_THROW((void)CampaignSpec::from_json("not json"),
               std::invalid_argument);
  EXPECT_THROW((void)CampaignSpec::from_json("[1, 2]"),
               std::invalid_argument);
  EXPECT_THROW((void)CampaignSpec::from_json("{\"bogus_key\": 1}"),
               std::invalid_argument);
  EXPECT_THROW((void)CampaignSpec::from_json("{\"scenarios\": [\"nope\"]}"),
               std::invalid_argument);
  EXPECT_THROW((void)CampaignSpec::from_json("{\"seeds\": 0}"),
               std::invalid_argument);
  EXPECT_THROW((void)CampaignSpec::from_json("{\"seeds\": true}"),
               std::invalid_argument);
  // Sweep IDs are standard identifiers.
  EXPECT_NO_THROW((void)CampaignSpec::from_json("{\"sweep_ids\": [2047]}"));
  EXPECT_THROW((void)CampaignSpec::from_json("{\"sweep_ids\": [2048]}"),
               std::invalid_argument);
  EXPECT_THROW((void)CampaignSpec::from_json("{\"name\": \"x\"} trailing"),
               std::invalid_argument);
  // Values that would wrap through size_t casts or place the attack at
  // negative time must be rejected at parse time, not discovered as a
  // hung training loop or garbage ground truth.
  EXPECT_THROW((void)CampaignSpec::from_json("{\"training_windows\": -1}"),
               std::invalid_argument);
  EXPECT_THROW((void)CampaignSpec::from_json("{\"training_windows\": 2.5}"),
               std::invalid_argument);
  EXPECT_THROW((void)CampaignSpec::from_json("{\"seed\": -4}"),
               std::invalid_argument);
  EXPECT_THROW((void)CampaignSpec::from_json("{\"lead_in_seconds\": -5}"),
               std::invalid_argument);
  EXPECT_THROW((void)CampaignSpec::from_json("{\"attack_seconds\": 0}"),
               std::invalid_argument);
}

TEST(CampaignSpecTest, ValidateRejectsDegenerateGrids) {
  CampaignSpec spec;
  spec.detectors.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = CampaignSpec{};
  spec.scenarios.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.sweep_ids = {0x100};  // sweep mode needs no scenarios
  EXPECT_NO_THROW(spec.validate());

  spec = CampaignSpec{};
  spec.rates_hz = {-5.0};
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = CampaignSpec{};
  spec.seeds = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(CampaignSpecTest, PlanSeedsMatchHistoricOrderings) {
  CampaignSpec spec;
  spec.detectors = {"a", "b"};
  spec.scenarios = {attacks::ScenarioKind::kSingle,
                    attacks::ScenarioKind::kMulti2};
  spec.rates_hz = {100.0, 50.0};
  spec.seeds = 2;

  const std::vector<TrialPlan> plan = spec.plan();
  ASSERT_EQ(plan.size(), spec.trial_count());
  ASSERT_EQ(plan.size(), 16u);

  // Scenario cells reuse the historic Table I counter: rate-major per
  // scenario, restarting per scenario — so every detector sees identical
  // traffic for a given (scenario, rate, seed) cell.
  EXPECT_EQ(plan[0].trial_seed, 0u);  // a, single, 100 Hz, seed 0
  EXPECT_EQ(plan[1].trial_seed, 1u);  // a, single, 100 Hz, seed 1
  EXPECT_EQ(plan[2].trial_seed, 2u);  // a, single, 50 Hz, seed 0
  EXPECT_EQ(plan[4].trial_seed, 0u);  // a, multi2 restarts
  EXPECT_EQ(plan[8].trial_seed, 0u);  // detector b repeats the same seeds
  EXPECT_EQ(plan[8].detector, "b");

  // Sweep mode counts per identifier (the Fig. 3 ordering).
  CampaignSpec sweep = spec;
  sweep.detectors = {"a"};
  sweep.sweep_ids = {0x100, 0x200};
  sweep.rates_hz = {100.0};
  sweep.seeds = 3;
  const std::vector<TrialPlan> sweep_plan = sweep.plan();
  ASSERT_EQ(sweep_plan.size(), 6u);
  EXPECT_EQ(sweep_plan[0].trial_seed, 0u);
  EXPECT_EQ(sweep_plan[2].trial_seed, 2u);
  EXPECT_EQ(sweep_plan[3].trial_seed, 3u);  // second ID continues counting
  EXPECT_EQ(*sweep_plan[3].sweep_id, 0x200u);
}

// ---- latency + ROC on hand-built observations ------------------------------

metrics::WindowObservation window(util::TimeNs start, util::TimeNs end,
                                  bool evaluated, bool alert, double metric,
                                  double threshold) {
  metrics::WindowObservation observation;
  observation.start = start;
  observation.end = end;
  observation.frames = 100;
  observation.evaluated = evaluated;
  observation.alert = alert;
  observation.metric = metric;
  observation.threshold = threshold;
  return observation;
}

/// A hand-built trial: 1 s windows over [0 s, 6 s), attack starting at
/// 2.5 s. The detector misses the first attacked window and alerts from
/// 4 s on, so the first alerting window ends at 5 s — latency 2.5 s.
metrics::InstrumentedTrial handmade_trial() {
  metrics::InstrumentedTrial trial;
  trial.backend = "bit-entropy";
  trial.kind = attacks::ScenarioKind::kSingle;
  trial.frequency_hz = 100.0;
  trial.attack_start = util::from_seconds(2.5);
  trial.attack_end = util::from_seconds(6.0);
  const auto s = [](double t) { return util::from_seconds(t); };
  trial.observations = {
      window(s(0), s(1), false, false, 0.0, 1.0),  // calibration
      window(s(1), s(2), true, false, 0.2, 1.0),   // clean, quiet
      window(s(2), s(3), true, false, 0.8, 1.0),   // attacked, missed
      window(s(3), s(4), true, false, 0.9, 1.0),   // attacked, missed
      window(s(4), s(5), true, true, 1.7, 1.0),    // attacked, alerted
      window(s(5), s(6), true, true, 2.4, 1.0),    // attacked, alerted
  };
  // Native-threshold confusion, as the trial scorer records it.
  for (const metrics::WindowObservation& observation : trial.observations) {
    if (!observation.evaluated) continue;
    trial.windows.record(observation.start < trial.attack_end &&
                             observation.end > trial.attack_start,
                         observation.alert);
  }
  return trial;
}

TEST(DetectionLatencyTest, FirstAlertingWindowAfterAttackStart) {
  const metrics::InstrumentedTrial trial = handmade_trial();
  const auto latency = trial.detection_latency();
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(*latency, util::from_seconds(5.0) - util::from_seconds(2.5));
}

TEST(DetectionLatencyTest, FalsePositiveBeforeAttackDoesNotCount) {
  metrics::InstrumentedTrial trial = handmade_trial();
  // A false positive in [1 s, 2 s) ends before the attack begins; latency
  // must still come from the 4–5 s window.
  trial.observations[1].alert = true;
  const auto latency = trial.detection_latency();
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(*latency, util::from_seconds(2.5));
}

TEST(DetectionLatencyTest, UndetectedAttackHasNoLatency) {
  metrics::InstrumentedTrial trial = handmade_trial();
  for (auto& observation : trial.observations) observation.alert = false;
  EXPECT_FALSE(trial.detection_latency().has_value());
}

TEST(RocTest, AucIsOneForPerfectSeparationAndHalfForAnchorsOnly) {
  std::vector<RocPoint> perfect(1);
  perfect[0].tpr = 1.0;
  perfect[0].fpr = 0.0;
  EXPECT_DOUBLE_EQ(auc_of(perfect), 1.0);
  EXPECT_DOUBLE_EQ(auc_of({}), 0.5);  // just the (0,0) and (1,1) anchors
}

TEST(RocTest, MakeReportSweepsThresholdScales) {
  CampaignSpec spec;
  spec.detectors = {"bit-entropy"};
  spec.scenarios = {attacks::ScenarioKind::kSingle};
  spec.rates_hz = {100.0};
  spec.seeds = 1;
  spec.threshold_scales = {0.5, 1.0, 3.0};

  const CampaignReport report = make_report(spec, {handmade_trial()});
  ASSERT_EQ(report.cells.size(), 1u);
  const CampaignCell& cell = report.cells.front();

  // Native threshold: 2 of 4 attacked windows alerted, clean window quiet.
  EXPECT_DOUBLE_EQ(cell.tpr, 0.5);
  EXPECT_DOUBLE_EQ(cell.fpr, 0.0);
  ASSERT_TRUE(cell.mean_latency_seconds.has_value());
  EXPECT_DOUBLE_EQ(*cell.mean_latency_seconds, 2.5);
  EXPECT_EQ(cell.detected_trials, 1);

  ASSERT_EQ(cell.roc.size(), 3u);
  // scale 0.5: scores {0.2 clean; 0.8, 0.9, 1.7, 2.4 attacked} -> all
  // four attacked windows flagged, the clean one still quiet.
  EXPECT_DOUBLE_EQ(cell.roc[0].tpr, 1.0);
  EXPECT_DOUBLE_EQ(cell.roc[0].fpr, 0.0);
  // scale 1.0 reproduces the native verdicts.
  EXPECT_DOUBLE_EQ(cell.roc[1].tpr, 0.5);
  EXPECT_DOUBLE_EQ(cell.roc[1].fpr, 0.0);
  // scale 3.0: nothing scores that high.
  EXPECT_DOUBLE_EQ(cell.roc[2].tpr, 0.0);
  EXPECT_DOUBLE_EQ(cell.roc[2].fpr, 0.0);
  EXPECT_DOUBLE_EQ(cell.auc, 1.0);  // perfect separation at scale 0.5
}

TEST(RocTest, ScaleOneMatchesNativeVerdictsForInclusiveThresholds) {
  // Interval/ensemble alert at metric >= threshold, so a window sitting
  // exactly at its threshold (score 1) alerts natively and must alert at
  // scale 1 too.
  CampaignSpec spec;
  spec.detectors = {"interval"};
  spec.scenarios = {attacks::ScenarioKind::kSingle};
  spec.rates_hz = {100.0};
  spec.seeds = 1;
  spec.threshold_scales = {1.0};

  metrics::InstrumentedTrial trial;
  trial.backend = "interval";
  trial.kind = attacks::ScenarioKind::kSingle;
  trial.frequency_hz = 100.0;
  trial.attack_start = util::from_seconds(1.0);
  trial.attack_end = util::from_seconds(3.0);
  const auto s = [](double t) { return util::from_seconds(t); };
  trial.observations = {
      window(s(0), s(1), true, false, 2.0, 3.0),  // clean, below threshold
      window(s(1), s(2), true, true, 3.0, 3.0),   // attacked, AT threshold
      window(s(2), s(3), true, true, 5.0, 3.0),   // attacked, above
  };
  for (const metrics::WindowObservation& observation : trial.observations) {
    trial.windows.record(observation.start < trial.attack_end &&
                             observation.end > trial.attack_start,
                         observation.alert);
  }

  const CampaignReport report = make_report(spec, {trial});
  const CampaignCell& cell = report.cells.front();
  ASSERT_EQ(cell.roc.size(), 1u);
  EXPECT_DOUBLE_EQ(cell.roc[0].tpr, cell.tpr);
  EXPECT_DOUBLE_EQ(cell.roc[0].fpr, cell.fpr);
  EXPECT_DOUBLE_EQ(cell.roc[0].tpr, 1.0);
}

TEST(RocTest, MakeReportRejectsTrialCountMismatch) {
  CampaignSpec spec;  // default grid expects many trials
  EXPECT_THROW((void)make_report(spec, {handmade_trial()}),
               std::invalid_argument);
}

// ---- end-to-end determinism ------------------------------------------------

/// A fast real campaign: one scenario, two detectors, 2 seeds, short
/// drives.
CampaignSpec quick_spec() {
  CampaignSpec spec;
  spec.name = "determinism";
  spec.detectors = {"bit-entropy", "interval"};
  spec.scenarios = {attacks::ScenarioKind::kSingle};
  spec.rates_hz = {100.0};
  spec.seeds = 2;
  spec.experiment.training_windows = 8;
  spec.experiment.clean_lead_in = 2 * util::kSecond;
  spec.experiment.attack_duration = 4 * util::kSecond;
  return spec;
}

std::string report_bytes(const CampaignReport& report) {
  std::ostringstream out;
  report.write_json(out);
  report.write_trials_csv(out);
  report.write_cells_csv(out);
  report.write_roc_csv(out);
  return out.str();
}

TEST(CampaignRunnerTest, ReportIsByteIdenticalAtAnyWorkerCount) {
  CampaignSpec one = quick_spec();
  one.workers = 1;
  CampaignSpec eight = quick_spec();
  eight.workers = 8;

  CampaignRunner runner_one(one);
  CampaignRunner runner_eight(eight);
  const std::string bytes_one = report_bytes(runner_one.run());
  const std::string bytes_eight = report_bytes(runner_eight.run());
  EXPECT_EQ(bytes_one, bytes_eight);
}

TEST(CampaignRunnerTest, ExtendedScenariosScoreEveryDetector) {
  CampaignSpec spec;
  spec.name = "extended";
  spec.detectors = {"bit-entropy", "interval"};
  spec.scenarios = {
      attacks::ScenarioKind::kReplay, attacks::ScenarioKind::kSuspend,
      attacks::ScenarioKind::kFuzzing, attacks::ScenarioKind::kMasquerade};
  spec.rates_hz = {100.0};
  spec.seeds = 2;
  spec.experiment.training_windows = 10;
  spec.experiment.clean_lead_in = 2 * util::kSecond;
  spec.experiment.attack_duration = 6 * util::kSecond;
  spec.workers = 1;

  CampaignRunner runner(spec);
  const CampaignReport report = runner.run();

  // detector x scenario cells all materialize, each with a ROC curve.
  ASSERT_EQ(report.cells.size(), 8u);
  for (const CampaignCell& cell : report.cells) {
    EXPECT_FALSE(cell.roc.empty())
        << cell.detector << "/" << scenario_token(cell.kind);
    EXPECT_GT(cell.windows.total(), 0u);
  }

  const auto cell_of = [&](std::string_view detector,
                           attacks::ScenarioKind kind) -> const CampaignCell& {
    for (const CampaignCell& cell : report.cells) {
      if (cell.detector == detector && cell.kind == kind) return cell;
    }
    throw std::logic_error("cell not found");
  };

  // The comparative split this corpus exists to measure: the two-sided
  // entropy rule catches the silence-based attacks (nonzero TPR on
  // suspend AND masquerade), the interval baseline catches replay.
  EXPECT_GT(cell_of("bit-entropy", attacks::ScenarioKind::kSuspend).tpr, 0.0);
  EXPECT_GT(cell_of("bit-entropy", attacks::ScenarioKind::kMasquerade).tpr,
            0.0);
  EXPECT_GT(cell_of("bit-entropy", attacks::ScenarioKind::kFuzzing).tpr, 0.0);
  EXPECT_GT(cell_of("interval", attacks::ScenarioKind::kReplay).tpr, 0.0);
  // Suspend injects nothing: frame-level attribution must agree.
  EXPECT_EQ(cell_of("bit-entropy", attacks::ScenarioKind::kSuspend)
                .frames.injected_frames,
            0u);
  // Matched ID + timing blinds the interval view — the hard case.
  EXPECT_EQ(cell_of("interval", attacks::ScenarioKind::kMasquerade)
                .windows.true_positive,
            0u);
}

TEST(CampaignRunnerTest, ExtendedScenarioReportIsWorkerCountInvariant) {
  const auto spec_with = [](int workers) {
    CampaignSpec spec;
    spec.name = "extended-determinism";
    spec.detectors = {"bit-entropy", "interval"};
    spec.scenarios = {
        attacks::ScenarioKind::kReplay, attacks::ScenarioKind::kSuspend,
        attacks::ScenarioKind::kFuzzing, attacks::ScenarioKind::kMasquerade};
    spec.rates_hz = {100.0};
    spec.seeds = 2;
    spec.experiment.training_windows = 8;
    spec.experiment.clean_lead_in = 2 * util::kSecond;
    spec.experiment.attack_duration = 4 * util::kSecond;
    spec.workers = workers;
    return spec;
  };
  CampaignRunner one(spec_with(1));
  CampaignRunner six(spec_with(6));
  EXPECT_EQ(report_bytes(one.run()), report_bytes(six.run()));
}

/// FNV-1a over the bytes of `text`.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (unsigned char byte : text) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// The exact bytes of a campaign over every scenario, for the two backends
// that infer. Speeding a trial up (which backend gets the ID pool, how
// inference searches) must leave both digests as they are.
TEST(CampaignRunnerTest, InferringBackendsMatchPinnedReportDigests) {
  CampaignSpec spec;
  spec.name = "pinned";
  spec.detectors = {"bit-entropy", "ensemble"};
  spec.scenarios = {attacks::kAllScenarios.begin(),
                    attacks::kAllScenarios.end()};
  spec.rates_hz = {100.0};
  spec.seeds = 1;
  spec.experiment.training_windows = 8;
  spec.experiment.clean_lead_in = 2 * util::kSecond;
  spec.experiment.attack_duration = 4 * util::kSecond;
  spec.workers = 2;

  CampaignRunner runner(spec);
  const CampaignReport report = runner.run();
  std::ostringstream json;
  report.write_json(json);
  std::ostringstream trials;
  report.write_trials_csv(trials);
  EXPECT_EQ(fnv1a(json.str()), 0xF8CEC1828B07A21EULL)
      << "report.json: 0x" << std::hex << std::uppercase << fnv1a(json.str())
      << "ULL";
  EXPECT_EQ(fnv1a(trials.str()), 0x4482C0DD9C22EF6AULL)
      << "trials.csv: 0x" << std::hex << std::uppercase
      << fnv1a(trials.str()) << "ULL";
}

// A trial's backend gets the ID pool only when its score reads inference:
// a flood trial's bit-entropy counts no pairs and infers nothing.
TEST(CampaignRunnerTest, OnlyInferableTrialsGetTheIdPool) {
  metrics::ExperimentRunner runner(quick_spec().experiment);
  const analysis::DetectorInfo flood =
      runner.make_trial_backend("bit-entropy", attacks::ScenarioKind::kFlood)
          ->describe();
  EXPECT_FALSE(flood.supports_inference);
  EXPECT_EQ(flood.state_growth, "O(1): 11 bit counters");
  EXPECT_FALSE(
      runner.make_trial_backend("ensemble", attacks::ScenarioKind::kFlood)
          ->describe()
          .supports_inference);
  for (const char* name : {"bit-entropy", "ensemble"}) {
    EXPECT_TRUE(
        runner.make_trial_backend(name, attacks::ScenarioKind::kMulti3)
            ->describe()
            .supports_inference)
        << name;
    // The public make_backend stays pooled whatever it is used for.
    EXPECT_TRUE(runner.make_backend(name)->describe().supports_inference)
        << name;
  }
}

TEST(CampaignRunnerTest, RejectsUnknownDetectors) {
  CampaignSpec spec = quick_spec();
  spec.detectors = {"no-such-detector"};
  EXPECT_THROW(CampaignRunner{spec}, analysis::UnknownDetectorError);
}

TEST(CampaignRunnerTest, ColdStartsFromSavedTemplate) {
  // Save the template a master runner would train...
  CampaignSpec spec = quick_spec();
  spec.detectors = {"bit-entropy"};
  spec.seeds = 1;
  metrics::ExperimentRunner master(spec.experiment);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "canids_campaign_test.tpl";
  {
    std::ofstream out(path);
    master.train().save(out);
  }

  // ...then a campaign cold-started from that legacy template file (read
  // through model_path like a bundle) must reproduce the in-process one.
  CampaignSpec cold = spec;
  cold.model_path = path.string();
  CampaignRunner warm_runner(spec);
  CampaignRunner cold_runner(cold);
  const CampaignReport warm = warm_runner.run();
  const CampaignReport cold_report = cold_runner.run();
  ASSERT_EQ(warm.trials.size(), cold_report.trials.size());
  EXPECT_EQ(warm.trials[0].frames.detected_frames,
            cold_report.trials[0].frames.detected_frames);
  EXPECT_EQ(warm.trials[0].windows.true_positive,
            cold_report.trials[0].windows.true_positive);
  std::filesystem::remove(path);

  CampaignSpec missing = spec;
  missing.model_path = "/nonexistent/template.tpl";
  CampaignRunner missing_runner(missing);
  EXPECT_THROW((void)missing_runner.run(), std::runtime_error);
}

// ---- model-bundle cold start -----------------------------------------------

TEST(CampaignRunnerTest, BundleColdStartMatchesTrainingForEveryBackend) {
  // Every detector-table backend in one grid; short drives keep it fast.
  CampaignSpec spec = quick_spec();
  spec.detectors.clear();
  for (const analysis::DetectorEntry& entry : analysis::detector_table()) {
    spec.detectors.emplace_back(entry.name);
  }
  spec.seeds = 1;

  // In-process training run, whose models become the bundle...
  CampaignRunner warm_runner(spec);
  const CampaignReport warm = warm_runner.run();
  EXPECT_GT(warm_runner.stats().training_passes, 0u);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "canids_campaign_bundle_test";
  {
    std::ofstream out(path, std::ios::binary);
    model::pack(warm_runner.models()).save(out);
  }

  // ...and the bundle cold-start must reproduce it byte-for-byte with
  // ZERO training passes (the training counters are the proof).
  CampaignSpec cold = spec;
  cold.model_path = path.string();
  CampaignRunner cold_runner(cold);
  const CampaignReport cold_report = cold_runner.run();
  EXPECT_EQ(cold_runner.stats().training_passes, 0u);
  EXPECT_EQ(report_bytes(cold_report), report_bytes(warm));
  std::filesystem::remove(path);
}

// ---- capture-replay campaigns ----------------------------------------------

/// Record a 12 s city drive with a single-ID injection active over
/// [3 s, 9 s) — the attacked half of the capture fixture.
void record_attacked_capture(const std::filesystem::path& path,
                             const trace::SyntheticVehicle& vehicle) {
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kCity, 7);
  attacks::AttackConfig attack_config;
  attack_config.frequency_hz = 100.0;
  attack_config.start = 3 * util::kSecond;
  attack_config.stop = 9 * util::kSecond;
  attacks::BuiltAttack attack = attacks::make_scenario(
      attacks::ScenarioKind::kSingle, vehicle, attack_config, util::Rng(7));
  attacks::attach_attack(bus, attack);
  trace::TraceRecorder recorder(bus);
  bus.run_until(12 * util::kSecond);
  trace::save_trace_file(path, recorder.trace(),
                         trace::TraceFormat::kCandump);
}

struct CaptureFixture {
  std::filesystem::path dir;

  CaptureFixture() {
    dir = std::filesystem::temp_directory_path() / "canids_capture_campaign";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const trace::SyntheticVehicle vehicle;
    record_attacked_capture(dir / "attacked.log", vehicle);
    trace::save_trace_file(dir / "clean.log",
                           vehicle.record_trace(trace::DrivingBehavior::kCity,
                                                10 * util::kSecond, 21),
                           trace::TraceFormat::kCandump);
    std::ofstream labels(dir / "labels.csv");
    labels << "capture,start_seconds,end_seconds\nattacked.log,3.0,9.0\n";
  }
  ~CaptureFixture() { std::filesystem::remove_all(dir); }

  [[nodiscard]] CampaignSpec spec() const {
    CampaignSpec out;
    out.name = "capture-replay";
    out.detectors = {"bit-entropy", "interval"};
    out.capture_dir = dir.string();
    out.experiment.training_windows = 8;
    return out;
  }
};

TEST(CaptureCampaignTest, ReplaysRecordedTracesAgainstSidecarLabels) {
  const CaptureFixture fixture;
  CampaignRunner runner(fixture.spec());
  // The runner resolved the directory scan into the spec (labels file
  // excluded, sorted).
  ASSERT_EQ(runner.spec().captures,
            (std::vector<std::string>{"attacked.log", "clean.log"}));

  const CampaignReport report = runner.run();
  ASSERT_EQ(report.cells.size(), 4u);  // 2 detectors x 2 captures
  for (const CampaignCell& cell : report.cells) {
    ASSERT_FALSE(cell.capture.empty());
    const bool attacked = cell.capture == "attacked.log";
    if (attacked) {
      // The labeled 3–9 s injection must be caught: attack windows exist,
      // most are flagged, and the latency is measurable.
      EXPECT_GT(cell.windows.true_positive + cell.windows.false_negative, 0u)
          << cell.detector;
      EXPECT_GT(cell.tpr, 0.5) << cell.detector;
      EXPECT_TRUE(cell.mean_latency_seconds.has_value()) << cell.detector;
    } else {
      // The clean capture has no positive windows at all.
      EXPECT_EQ(cell.windows.true_positive + cell.windows.false_negative, 0u)
          << cell.detector;
      EXPECT_LT(cell.fpr, 0.5) << cell.detector;
    }
  }

  // Per-cell TPR/FPR/latency CSV artifacts carry the capture column.
  std::ostringstream cells_csv;
  report.write_cells_csv(cells_csv);
  EXPECT_NE(cells_csv.str().find("attacked.log"), std::string::npos);
  EXPECT_NE(cells_csv.str().find("clean.log"), std::string::npos);
  std::ostringstream roc_csv;
  report.write_roc_csv(roc_csv);
  EXPECT_NE(roc_csv.str().find("attacked.log"), std::string::npos);
}

TEST(CaptureCampaignTest, ReportIsByteIdenticalAtAnyWorkerCount) {
  const CaptureFixture fixture;
  CampaignSpec one = fixture.spec();
  one.workers = 1;
  CampaignSpec four = fixture.spec();
  four.workers = 4;
  CampaignRunner runner_one(one);
  CampaignRunner runner_four(four);
  EXPECT_EQ(report_bytes(runner_one.run()), report_bytes(runner_four.run()));
}

TEST(CaptureCampaignTest, SpecJsonRoundTripsCaptureFields) {
  CampaignSpec spec;
  spec.detectors = {"interval"};
  spec.capture_dir = "/data/fleet";
  spec.captures = {"a.log", "b.log"};
  spec.labels_path = "/data/fleet/truth.csv";
  const CampaignSpec restored = CampaignSpec::from_json(spec.to_json());
  EXPECT_EQ(restored.capture_dir, spec.capture_dir);
  EXPECT_EQ(restored.captures, spec.captures);
  EXPECT_EQ(restored.labels_path, spec.labels_path);
  EXPECT_TRUE(restored.capture_mode());
}

TEST(CaptureCampaignTest, ExplicitLabelsPathNeverScansAsACapture) {
  const CaptureFixture fixture;
  CampaignSpec spec = fixture.spec();
  // Same labels file, spelled as an absolute path instead of the default
  // capture_dir-relative one — it must still be excluded from the scan.
  spec.labels_path = (fixture.dir / "labels.csv").string();
  CampaignRunner runner(spec);
  EXPECT_EQ(runner.spec().captures,
            (std::vector<std::string>{"attacked.log", "clean.log"}));
}

TEST(CaptureCampaignTest, MultiIntervalLatencyAnchorsToTheOverlappedInterval) {
  // Hand-built capture trial: attacks labeled at [3 s, 4 s) and
  // [100 s, 101 s). The first burst is missed, a FALSE positive fires in
  // the unlabeled gap at [50 s, 51 s), and the second burst is caught at
  // [100 s, 101 s) — the latency must be 1 s from the SECOND interval's
  // start, not 98 s from the first's, and the gap alert must not count.
  metrics::InstrumentedTrial trial;
  trial.backend = "interval";
  trial.capture = "drive.log";
  trial.attack_intervals = {{util::from_seconds(3), util::from_seconds(4)},
                            {util::from_seconds(100),
                             util::from_seconds(101)}};
  trial.attack_start = util::from_seconds(3);
  trial.attack_end = util::from_seconds(101);
  trial.observations = {
      window(util::from_seconds(3), util::from_seconds(4), true, false, 0.2,
             1.0),  // first burst missed
      window(util::from_seconds(50), util::from_seconds(51), true, true, 1.2,
             1.0),  // false positive in the unlabeled gap
      window(util::from_seconds(100), util::from_seconds(101), true, true,
             2.0, 1.0),  // second burst caught
  };
  const auto latency = trial.detection_latency();
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(*latency, util::from_seconds(1.0));

  // All alerts in unlabeled gaps -> no detection at all.
  trial.observations[2].alert = false;
  EXPECT_FALSE(trial.detection_latency().has_value());
}

TEST(CaptureCampaignTest, EpochTimestampsNormalizeToCaptureStart) {
  // Real candump recordings carry absolute epoch timestamps while labels
  // are capture-relative; replay must normalize to the first frame or an
  // attacked recording silently scores all-negative.
  metrics::ExperimentConfig config;
  config.training_windows = 6;
  metrics::ExperimentRunner runner(config);

  constexpr util::TimeNs kEpoch = 1'436'509'052 * util::kSecond;
  std::vector<can::TimedFrame> frames;
  for (int i = 0; i < 500; ++i) {  // 10 ms cadence -> 5 s of traffic
    frames.push_back(can::TimedFrame{
        kEpoch + static_cast<util::TimeNs>(i) * 10 * util::kMillisecond,
        can::Frame::data_frame(can::CanId::standard(0x123), {}),
        can::TimedFrame::kUnknownSource});
  }
  trace::MemorySource source(std::move(frames));
  const metrics::InstrumentedTrial trial = runner.run_capture_trial(
      "interval", source,
      {{3 * util::kSecond, 4 * util::kSecond}},  // capture-relative label
      "epoch.log", 0);

  // The labeled window must land inside the capture: positive windows
  // exist, and the observations read in capture time, not epoch time.
  EXPECT_GT(trial.windows.true_positive + trial.windows.false_negative, 0u);
  ASSERT_FALSE(trial.observations.empty());
  EXPECT_LT(trial.observations.back().end, 10 * util::kSecond);
}

TEST(CaptureCampaignTest, ExplicitSubsetMayUseDirectoryWideLabels) {
  // A labels.csv covering the whole dataset must not block a campaign
  // over an explicit subset of its captures.
  const CaptureFixture fixture;
  {
    std::ofstream labels(fixture.dir / "labels.csv");
    labels << "capture,start_seconds,end_seconds\n"
              "attacked.log,3.0,9.0\n"
              "not-in-this-run.log,1.0,2.0\n";
  }
  CampaignSpec spec = fixture.spec();
  spec.captures = {"attacked.log"};
  CampaignRunner runner(spec);
  EXPECT_EQ(runner.spec().trial_count(), spec.detectors.size());
}

TEST(CaptureCampaignTest, CapturesWithoutDirAreRejected) {
  CampaignSpec spec;
  spec.detectors = {"interval"};
  spec.captures = {"a.log"};  // no capture_dir: would resolve against CWD
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(CaptureCampaignTest, RejectsLabelsForUnknownCapturesAndBadDirs) {
  const CaptureFixture fixture;
  CampaignSpec spec = fixture.spec();
  // Labels naming a capture outside the campaign would silently score
  // nothing — reject instead.
  {
    std::ofstream labels(fixture.dir / "labels.csv");
    labels << "capture,start_seconds,end_seconds\nghost.log,1.0,2.0\n";
  }
  EXPECT_THROW(CampaignRunner{spec}, std::invalid_argument);

  CampaignSpec bad_dir = fixture.spec();
  bad_dir.capture_dir = "/nonexistent/captures";
  EXPECT_THROW(CampaignRunner{bad_dir}, std::invalid_argument);
}

TEST(RollupTest, SummarizesOnlyTheDetectorsSyntheticScenarioTrials) {
  const auto trial = [](std::string backend, std::uint64_t injected) {
    metrics::InstrumentedTrial t;
    t.backend = std::move(backend);
    t.kind = attacks::ScenarioKind::kSingle;
    t.frames.injected_frames = injected;
    t.frames.detected_frames = injected;
    t.injection_rate_arbitration = 0.5;
    return t;
  };
  CampaignReport report;
  report.trials.push_back(trial("bit-entropy", 10));
  report.trials.push_back(trial("bit-entropy", 20));
  report.trials.push_back(trial("interval", 40));
  report.trials.push_back(trial("bit-entropy", 80));
  report.trials.back().single_id = 0x101;
  report.trials.push_back(trial("bit-entropy", 160));
  report.trials.back().capture = "car-a.log";
  report.trials.push_back(trial("bit-entropy", 320));
  report.trials.back().kind = attacks::ScenarioKind::kMulti2;

  const metrics::ScenarioSummary rollup =
      report.rollup("bit-entropy", attacks::ScenarioKind::kSingle);
  EXPECT_EQ(rollup.kind, attacks::ScenarioKind::kSingle);
  EXPECT_EQ(rollup.trials, 2u);
  EXPECT_EQ(rollup.frames.injected_frames, 30u);
  EXPECT_DOUBLE_EQ(rollup.mean_injection_rate, 0.5);

  EXPECT_EQ(report.rollup("ensemble", attacks::ScenarioKind::kSingle).trials,
            0u);
}

}  // namespace
}  // namespace canids::campaign
