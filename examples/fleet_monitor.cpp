// Fleet monitor: the sharded engine watching several vehicles at once.
//
//   1. Train one golden template (shared, immutable, copy-free across
//      every stream).
//   2. Stream three clean drives and one under live injection attack —
//      each drive is simulated in bounded chunks, never materialized.
//   3. The FleetEngine routes every vehicle to a worker shard; alerts from
//      all shards funnel into one thread-safe sink.
//
// Build & run:  ./example_fleet_monitor
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/registry.h"
#include "attacks/scenario.h"
#include "engine/fleet_engine.h"
#include "metrics/experiment.h"
#include "trace/synthetic_vehicle.h"
#include "trace/trace_source.h"

using namespace canids;

int main() {
  // --- 1. Shared golden template -------------------------------------------
  metrics::ExperimentRunner runner;
  const auto golden = runner.train_shared();
  std::printf("golden template: %zu training windows, shared by all streams\n",
              golden->training_windows);

  const trace::SyntheticVehicle& vehicle = runner.vehicle();
  constexpr util::TimeNs kDrive = 20 * util::kSecond;

  // --- 2. Four drives: three clean, one attacked ---------------------------
  std::vector<engine::NamedSource> sources;
  sources.push_back(engine::NamedSource{
      "car-idle", vehicle.stream_trace(trace::DrivingBehavior::kIdle, kDrive, 11),
      vehicle.id_pool()});
  sources.push_back(engine::NamedSource{
      "car-city", vehicle.stream_trace(trace::DrivingBehavior::kCity, kDrive, 12),
      vehicle.id_pool()});
  sources.push_back(engine::NamedSource{
      "car-highway",
      vehicle.stream_trace(trace::DrivingBehavior::kHighway, kDrive, 13),
      vehicle.id_pool()});

  // The compromised car: its bus carries a 100 Hz single-ID injection from
  // t=5s to t=15s. The bus is driven chunk-by-chunk by the stream source.
  can::BusSimulator attacked_bus(vehicle.config().bus);
  vehicle.attach_to(attacked_bus, trace::DrivingBehavior::kCity, 14);
  attacks::AttackConfig attack_config;
  attack_config.frequency_hz = 100.0;
  attack_config.start = 5 * util::kSecond;
  attack_config.stop = 15 * util::kSecond;
  auto attack = attacks::make_scenario(attacks::ScenarioKind::kSingle, vehicle,
                                       attack_config, util::Rng(7));
  std::printf("car-compromised: injecting ID %03X at %.0f Hz, t=5s..15s\n",
              attack.planned_ids.front(), attack_config.frequency_hz);
  attacks::attach_attack(attacked_bus, attack);
  sources.push_back(engine::NamedSource{
      "car-compromised",
      std::make_unique<trace::BusStreamSource>(attacked_bus, kDrive),
      vehicle.id_pool()});

  // --- 3. Run the fleet ----------------------------------------------------
  engine::FleetConfig config;
  config.shards = 4;
  analysis::DetectorOptions options;
  options.golden = golden;
  engine::FleetEngine fleet(analysis::make_detector("bit-entropy", options),
                            config);
  fleet.alerts().set_handler([](const engine::FleetAlert& alert) {
    std::printf("[%s @ %4.1fs] ALERT", alert.stream.c_str(),
                util::to_seconds(alert.verdict.start));
    if (alert.verdict.detail) {
      std::printf(" bits:");
      for (int bit : alert.verdict.detail->alerted_bits) {
        std::printf(" %d", bit + 1);
      }
      if (!alert.verdict.detail->ranked_candidates.empty()) {
        std::printf("  suspect IDs:");
        const auto& candidates = alert.verdict.detail->ranked_candidates;
        for (std::size_t i = 0; i < candidates.size() && i < 5; ++i) {
          std::printf(" %03X", candidates[i]);
        }
      }
    }
    std::printf("\n");
  });

  engine::FleetRunResult run = engine::run_fleet(fleet, std::move(sources));

  std::printf("\nper-vehicle summary:\n");
  for (const engine::StreamResult& stream : run.streams) {
    std::printf("  %-16s shard %d  %6llu frames  %3llu windows  %llu alerts\n",
                stream.key.c_str(), stream.shard,
                static_cast<unsigned long long>(stream.counters.frames),
                static_cast<unsigned long long>(
                    stream.counters.windows_closed),
                static_cast<unsigned long long>(stream.counters.alerts));
  }
  std::printf("fleet total: %llu frames, %llu alerts across %d shards\n",
              static_cast<unsigned long long>(fleet.totals().frames),
              static_cast<unsigned long long>(fleet.totals().alerts),
              fleet.shards());

  // Exit 0 when the compromised car (and only it) tripped the IDS.
  bool compromised_alerted = false;
  bool clean_alerted = false;
  for (const engine::StreamResult& stream : run.streams) {
    if (stream.key == "car-compromised") {
      compromised_alerted = stream.counters.alerts > 0;
    } else if (stream.counters.alerts > 0) {
      clean_alerted = true;
    }
  }
  return compromised_alerted && !clean_alerted ? 0 : 1;
}
