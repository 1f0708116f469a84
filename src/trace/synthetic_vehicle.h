// Synthetic in-vehicle traffic model standing in for the paper's 2016 Ford
// Fusion capture (see DESIGN.md, substitution table).
//
// The model reproduces the properties the entropy IDS depends on:
//   * 223 active identifiers — 10.88 % of the 11-bit space, the count the
//     paper reports for the Ford Fusion;
//   * periodic, priority-stratified schedules (10 ms .. 1 s), so the per-bit
//     ID entropy of a window is stable under normal operation;
//   * driving behaviours (idle, city, highway, audio, lights, cruise,
//     parking) that slightly alter the traffic mix through behaviour-gated
//     event messages — the "diverse driving behaviors" the paper averages
//     into its golden template.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "can/bus.h"
#include "can/node.h"
#include "trace/log_record.h"
#include "trace/trace_source.h"
#include "util/rng.h"

namespace canids::trace {

enum class DrivingBehavior : std::uint8_t {
  kIdle,
  kCity,
  kHighway,
  kAudioOn,
  kLightsOn,
  kCruiseControl,
  kParking,
};

inline constexpr std::array<DrivingBehavior, 7> kAllBehaviors = {
    DrivingBehavior::kIdle,         DrivingBehavior::kCity,
    DrivingBehavior::kHighway,      DrivingBehavior::kAudioOn,
    DrivingBehavior::kLightsOn,     DrivingBehavior::kCruiseControl,
    DrivingBehavior::kParking,
};

[[nodiscard]] std::string_view behavior_name(DrivingBehavior behavior) noexcept;

struct VehicleConfig {
  /// Master seed fixing the ID layout and schedule of this vehicle.
  std::uint64_t seed = 0xF0D02016u;
  /// Multiplier applied to every message period; < 1 raises the bus load
  /// (used by the Fig. 3 bench to stress arbitration contention).
  double period_scale = 1.0;
  /// Bus settings used by record_trace (mid-speed CAN by default).
  can::BusConfig bus;
};

/// One simulated ECU: a name plus its periodic messages (offsets are chosen
/// per run) and behaviour-gated event messages.
struct EcuDescriptor {
  std::string name;
  std::vector<can::MessageSpec> messages;
  /// Event messages transmitted only under the given behaviour.
  std::vector<std::pair<DrivingBehavior, can::MessageSpec>> event_messages;
};

class SyntheticVehicle {
 public:
  explicit SyntheticVehicle(VehicleConfig config = {});

  [[nodiscard]] const VehicleConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<EcuDescriptor>& ecus() const noexcept {
    return ecus_;
  }

  /// All assigned identifiers, ascending — the paper's "legal ID set" from
  /// which the single/multi attackers pick and over which inference ranks.
  [[nodiscard]] const std::vector<std::uint32_t>& id_pool() const noexcept {
    return id_pool_;
  }

  /// Identifiers assigned to one ECU (the weak attacker's allowed set).
  [[nodiscard]] std::vector<std::uint32_t> ids_of_ecu(std::size_t index) const;

  /// Fraction of the standard ID space in use (paper: 10.88 %).
  [[nodiscard]] double id_space_usage() const noexcept;

  /// Instantiate the vehicle's ECUs as nodes on `bus`. Per-run offsets,
  /// jitter, and payload noise derive from `run_seed`, so different seeds
  /// model different drives. Returns the node indices created.
  std::vector<int> attach_to(can::BusSimulator& bus, DrivingBehavior behavior,
                             std::uint64_t run_seed) const;

  /// Convenience: simulate `duration` of traffic under `behavior` on a
  /// fresh bus and return the recorded trace.
  [[nodiscard]] Trace record_trace(DrivingBehavior behavior,
                                   util::TimeNs duration,
                                   std::uint64_t run_seed) const;

  /// Streaming variant of record_trace: the drive is simulated in bounded
  /// chunks as the caller pulls frames, so hours of traffic never
  /// materialize in memory. Frame-for-frame identical to record_trace for
  /// the same (behavior, duration, run_seed).
  [[nodiscard]] std::unique_ptr<TraceSource> stream_trace(
      DrivingBehavior behavior, util::TimeNs duration,
      std::uint64_t run_seed) const;

 private:
  void build_id_layout();

  VehicleConfig config_;
  std::vector<std::uint32_t> id_pool_;
  std::vector<EcuDescriptor> ecus_;
};

/// The engine behind SyntheticVehicle::stream_trace — owns the bus and
/// advances it on demand through a BusStreamSource.
class SyntheticVehicleSource final : public TraceSource {
 public:
  SyntheticVehicleSource(const SyntheticVehicle& vehicle,
                         DrivingBehavior behavior, util::TimeNs duration,
                         std::uint64_t run_seed);
  SyntheticVehicleSource(const SyntheticVehicleSource&) = delete;
  SyntheticVehicleSource& operator=(const SyntheticVehicleSource&) = delete;

  std::optional<can::TimedFrame> next() override;

 private:
  can::BusSimulator bus_;
  BusStreamSource source_;
};

}  // namespace canids::trace
