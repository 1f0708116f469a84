// Offline path: simulate an attacked drive, export the capture as a candump
// log (text), re-parse it, and run the IDS purely on the parsed trace —
// the workflow an analyst applies to a real Vehicle Spy / candump capture.
#include <gtest/gtest.h>

#include <sstream>

#include "attacks/scenario.h"
#include "ids/pipeline.h"
#include "trace/candump.h"
#include "trace/trace_io.h"
#include "trace/vspy_csv.h"

namespace canids {
namespace {

using util::kSecond;

TEST(OfflineAnalysisTest, CandumpRoundTripDetection) {
  const trace::SyntheticVehicle vehicle;

  // --- Train from clean captures -------------------------------------------
  ids::WindowConfig window;
  window.duration = kSecond;
  ids::TemplateBuilder builder;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const trace::Trace capture = vehicle.record_trace(
        trace::kAllBehaviors[seed % trace::kAllBehaviors.size()],
        5 * kSecond, 300 + seed);
    std::vector<can::TimedFrame> frames;
    for (const trace::LogRecord& r : capture) {
      frames.push_back({r.timestamp, r.frame, -1});
    }
    for (const auto& snap : ids::windows_of(frames, window)) {
      if (snap.end - snap.start == window.duration) builder.add_window(snap);
    }
  }
  const ids::GoldenTemplate golden = builder.build();

  // --- Record an attacked drive and serialise it to candump text -----------
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kCity, 42);
  attacks::AttackConfig attack_config;
  attack_config.frequency_hz = 100.0;
  attack_config.start = 2 * kSecond;
  attack_config.stop = 8 * kSecond;
  auto attack = attacks::make_scenario(attacks::ScenarioKind::kSingle,
                                       vehicle, attack_config, util::Rng(9));
  const std::vector<std::uint32_t> true_ids = attack.planned_ids;
  attacks::attach_attack(bus, attack);
  trace::TraceRecorder recorder(bus, "can0");
  bus.run_until(9 * kSecond);

  std::stringstream log_text;
  trace::write_candump(log_text, recorder.trace());

  // --- Parse the text back and analyse offline ------------------------------
  const trace::Trace parsed = trace::load_trace(log_text);
  ASSERT_EQ(parsed.size(), recorder.trace().size());

  ids::PipelineConfig pipeline_config;
  pipeline_config.window = window;
  ids::IdsPipeline pipeline(golden, vehicle.id_pool(), pipeline_config);

  std::uint64_t alerts = 0;
  double best_hit = 0.0;
  for (const trace::LogRecord& record : parsed) {
    if (auto report = pipeline.on_frame(record.timestamp, record.frame.id())) {
      if (report->detection.alert) {
        ++alerts;
        if (report->inference) {
          best_hit = std::max(
              best_hit, ids::inference_hit_fraction(
                            true_ids, report->inference->ranked_candidates));
        }
      }
    }
  }
  if (auto report = pipeline.finish(); report && report->detection.alert) {
    ++alerts;
  }

  EXPECT_GE(alerts, 3u);  // ~6 attacked windows
  EXPECT_DOUBLE_EQ(best_hit, 1.0);
}

TEST(OfflineAnalysisTest, VspyCsvPathAgreesWithCandumpPath) {
  const trace::SyntheticVehicle vehicle;
  const trace::Trace capture =
      vehicle.record_trace(trace::DrivingBehavior::kHighway, 2 * kSecond, 7);

  std::stringstream candump_text;
  trace::write_candump(candump_text, capture);
  std::stringstream csv_text;
  trace::write_vspy_csv(csv_text, capture);

  const trace::Trace from_candump = trace::load_trace(candump_text);
  const trace::Trace from_csv = trace::load_trace(csv_text);
  ASSERT_EQ(from_candump.size(), from_csv.size());
  for (std::size_t i = 0; i < from_candump.size(); ++i) {
    EXPECT_EQ(from_candump[i].frame, from_csv[i].frame);
  }
}

}  // namespace
}  // namespace canids
