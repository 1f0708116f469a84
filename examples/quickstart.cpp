// Quickstart: the smallest end-to-end use of the canids public API.
//
//   1. Model a vehicle (or capture real traffic with candump/Vehicle Spy).
//   2. Train the golden template on clean driving windows.
//   3. Attach the IDS pipeline and stream frames through it.
//   4. React to alerts: which bits moved, which IDs are suspect.
//
// Build & run:  ./quickstart
#include <cstdio>
#include <optional>

#include "attacks/scenario.h"
#include "ids/pipeline.h"
#include "metrics/experiment.h"

using namespace canids;

namespace {

/// Print a closed window's report when it alerted: which bits moved, which
/// IDs are suspect.
void print_alert(const std::optional<ids::WindowReport>& report) {
  if (!report || !report->detection.alert) return;
  std::printf("[%5.1fs] ALERT  bits:",
              util::to_seconds(report->snapshot.start));
  for (int bit : report->detection.alerted_bits) {
    std::printf(" %d", bit + 1);  // paper-style 1-based bit positions
  }
  if (report->inference) {
    std::printf("  suspect IDs:");
    for (std::size_t i = 0;
         i < report->inference->ranked_candidates.size() && i < 5; ++i) {
      std::printf(" %03X", report->inference->ranked_candidates[i]);
    }
    std::printf("  (injected fraction ~%.1f%%)",
                report->inference->estimated_injection_fraction * 100.0);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // --- 1. A synthetic 2016-Ford-Fusion-like vehicle -------------------------
  trace::SyntheticVehicle vehicle;
  std::printf("vehicle: %zu ECUs, %zu active IDs (%.2f%% of ID space)\n",
              vehicle.ecus().size(), vehicle.id_pool().size(),
              vehicle.id_space_usage() * 100.0);

  // --- 2. Train the golden template (paper: 35 windows, 1 s each) ----------
  metrics::ExperimentConfig config;
  config.training_windows = ids::kPaperTrainingWindows;
  metrics::ExperimentRunner runner(config);
  const ids::GoldenTemplate& golden = runner.train();
  std::printf("golden template trained on %zu windows\n",
              golden.training_windows);

  // --- 3. Simulate a drive with a live injection attack ---------------------
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kCity, /*run_seed=*/2024);

  attacks::AttackConfig attack_config;
  attack_config.frequency_hz = 100.0;
  attack_config.start = 5 * util::kSecond;
  attack_config.stop = 12 * util::kSecond;
  auto attack = attacks::make_scenario(attacks::ScenarioKind::kSingle,
                                       vehicle, attack_config,
                                       util::Rng(7));
  std::printf("attacker will inject ID %03X at %.0f Hz from t=5s to t=12s\n",
              attack.planned_ids.front(), attack_config.frequency_hz);
  attacks::attach_attack(bus, attack);

  // --- 4. Attach the IDS and stream the bus through it ----------------------
  ids::PipelineConfig pipeline_config;  // 1 s windows, alpha = 5, rank = 10
  ids::IdsPipeline pipeline(golden, vehicle.id_pool(), pipeline_config);

  bus.add_listener([&pipeline](const can::TimedFrame& frame) {
    print_alert(pipeline.on_frame(frame.timestamp, frame.frame.id()));
  });

  bus.run_until(15 * util::kSecond);
  print_alert(pipeline.finish());

  std::printf(
      "done: %llu frames, %llu windows, %llu alerts, bus load %.0f%%\n",
      static_cast<unsigned long long>(pipeline.counters().frames),
      static_cast<unsigned long long>(pipeline.counters().windows_closed),
      static_cast<unsigned long long>(pipeline.counters().alerts),
      bus.stats().load() * 100.0);
  return pipeline.counters().alerts > 0 ? 0 : 1;
}
