#include <gtest/gtest.h>

#include <vector>

#include "metrics/experiment.h"

namespace canids::metrics {
namespace {

using attacks::ScenarioKind;

/// A hand-built trial: `detected` of `injected` frames caught, `hits` of
/// `events` inference events correct, one false positive in ten clean
/// windows when `false_alarm`.
InstrumentedTrial trial(std::uint64_t injected, std::uint64_t detected,
                        double hits, std::uint64_t events,
                        double injection_rate, bool false_alarm) {
  InstrumentedTrial t;
  t.kind = ScenarioKind::kMulti2;
  t.frames.injected_frames = injected;
  t.frames.detected_frames = detected;
  t.detection_rate = t.frames.detection_rate();
  t.inference_hit_sum = hits;
  t.inference_windows = events;
  if (events > 0) t.inference_accuracy = hits / static_cast<double>(events);
  t.injection_rate_arbitration = injection_rate;
  for (int w = 0; w < 10; ++w) t.windows.record(false, false_alarm && w == 0);
  return t;
}

TEST(ScenarioSummaryTest, DetectionRateIsFrameWeighted) {
  // 9/10 and 45/90: the per-trial mean would be 70%, the frame-weighted
  // rate is 54/100.
  const std::vector<InstrumentedTrial> trials = {
      trial(10, 9, 0.0, 0, 0.0, false), trial(90, 45, 0.0, 0, 0.0, false)};
  const ScenarioSummary summary = summarize(ScenarioKind::kMulti2, trials);
  EXPECT_EQ(summary.kind, ScenarioKind::kMulti2);
  EXPECT_EQ(summary.trials, 2u);
  EXPECT_EQ(summary.frames.injected_frames, 100u);
  EXPECT_EQ(summary.frames.detected_frames, 54u);
  EXPECT_DOUBLE_EQ(summary.detection_rate, 0.54);
}

TEST(ScenarioSummaryTest, InferenceAccuracyIsPerEvent) {
  // 3/3 and 0/1 correct: per trial that is 100% and 0% (mean 50%), per
  // inference event 3 of 4.
  const std::vector<InstrumentedTrial> trials = {
      trial(10, 10, 3.0, 3, 0.0, false), trial(10, 10, 0.0, 1, 0.0, false)};
  const ScenarioSummary summary = summarize(ScenarioKind::kMulti2, trials);
  ASSERT_TRUE(summary.inference_accuracy.has_value());
  EXPECT_DOUBLE_EQ(*summary.inference_accuracy, 0.75);
}

TEST(ScenarioSummaryTest, NoInferenceEventsMeansNoInferenceAccuracy) {
  const std::vector<InstrumentedTrial> trials = {
      trial(10, 10, 0.0, 0, 0.0, false), trial(10, 0, 0.0, 0, 0.0, false)};
  EXPECT_FALSE(summarize(ScenarioKind::kMulti2, trials)
                   .inference_accuracy.has_value());
}

TEST(ScenarioSummaryTest, InjectionRateIsTheMeanOverTrials) {
  const std::vector<InstrumentedTrial> trials = {
      trial(10, 10, 0.0, 0, 0.2, true), trial(1000, 10, 0.0, 0, 0.6, false)};
  const ScenarioSummary summary = summarize(ScenarioKind::kMulti2, trials);
  EXPECT_DOUBLE_EQ(summary.mean_injection_rate, 0.4);
  // One false alarm over twenty clean windows.
  EXPECT_EQ(summary.windows.false_positive, 1u);
  EXPECT_DOUBLE_EQ(summary.false_positive_rate, 0.05);
}

TEST(ScenarioSummaryTest, EmptySpanIsAZeroSummary) {
  const ScenarioSummary summary = summarize(ScenarioKind::kFlood, {});
  EXPECT_EQ(summary.kind, ScenarioKind::kFlood);
  EXPECT_EQ(summary.trials, 0u);
  EXPECT_DOUBLE_EQ(summary.detection_rate, 0.0);
  EXPECT_DOUBLE_EQ(summary.mean_injection_rate, 0.0);
  EXPECT_FALSE(summary.inference_accuracy.has_value());
}

}  // namespace
}  // namespace canids::metrics
