#include "trace/synthetic_vehicle.h"

#include <algorithm>
#include <set>

#include "trace/trace_io.h"
#include "util/contracts.h"

namespace canids::trace {

namespace {

/// Period tiers by priority rank within the sorted ID pool. Lower IDs get
/// faster periods, mirroring how OEMs allocate safety-critical traffic.
struct Tier {
  int count;                 ///< how many IDs fall in this tier
  util::TimeNs period;
  can::PayloadKind payload;
};

constexpr util::TimeNs kMs = util::kMillisecond;

// 223 IDs total; ~870 frames/s of periodic traffic, plus behaviour events.
// At 125 kbit/s with ~110-bit frames this yields roughly 75-80 % bus load —
// enough contention for the injection-rate curve of Fig. 3 to be visible.
constexpr Tier kTiers[] = {
    {2, 10 * kMs, can::PayloadKind::kSensor},     // powertrain fast loops
    {6, 20 * kMs, can::PayloadKind::kSensor},     // chassis control
    {15, 100 * kMs, can::PayloadKind::kCounter},  // status broadcast
    {40, 500 * kMs, can::PayloadKind::kSensor},   // body diagnostics
    {140, 1000 * kMs, can::PayloadKind::kConstant},  // slow housekeeping
};
constexpr int kEventIds = 20;  // behaviour-gated, 200 ms while active
constexpr util::TimeNs kEventPeriod = 200 * kMs;

/// Number of active identifiers; the paper's Ford Fusion uses 223
/// (10.88 % of the 2048-value standard ID space).
constexpr int kTotalIds = 223;
static_assert(kTotalIds > kEventIds);
/// Assigned-ID range. Real vehicles avoid the extremes of the space.
constexpr std::uint32_t kIdFloor = 0x040;
constexpr std::uint32_t kIdCeiling = 0x7EF;
static_assert(kIdCeiling <= can::kMaxStdId && kIdCeiling > kIdFloor);
static_assert(kIdCeiling - kIdFloor + 1 >=
              static_cast<std::uint32_t>(kTotalIds));

/// One simulated ECU per name; the IDs are distributed over all of them.
constexpr std::array<std::string_view, 12> kEcuNames = {
    "EngineControl",   "TransmissionControl", "BrakeControl",
    "PowerSteering",   "AirbagRestraint",     "BodyControl",
    "InstrumentCluster", "ClimateControl",    "AudioHeadUnit",
    "TelematicsGateway", "LightingControl",   "SeatDoorModule",
};

}  // namespace

std::string_view behavior_name(DrivingBehavior behavior) noexcept {
  switch (behavior) {
    case DrivingBehavior::kIdle: return "idle";
    case DrivingBehavior::kCity: return "city";
    case DrivingBehavior::kHighway: return "highway";
    case DrivingBehavior::kAudioOn: return "audio-on";
    case DrivingBehavior::kLightsOn: return "lights-on";
    case DrivingBehavior::kCruiseControl: return "cruise-control";
    case DrivingBehavior::kParking: return "parking";
  }
  return "unknown";
}

SyntheticVehicle::SyntheticVehicle(VehicleConfig config)
    : config_(config) {
  CANIDS_EXPECTS(config_.period_scale > 0.0);
  build_id_layout();
}

void SyntheticVehicle::build_id_layout() {
  util::Rng rng(config_.seed);

  // Draw the assigned identifier set, deterministic in the vehicle seed.
  std::set<std::uint32_t> chosen;
  while (static_cast<int>(chosen.size()) < kTotalIds) {
    const auto span = kIdCeiling - kIdFloor + 1;
    chosen.insert(kIdFloor + static_cast<std::uint32_t>(rng.below(span)));
  }
  id_pool_.assign(chosen.begin(), chosen.end());  // ascending

  ecus_.resize(kEcuNames.size());
  for (std::size_t e = 0; e < kEcuNames.size(); ++e) {
    ecus_[e].name = std::string(kEcuNames[e]);
  }

  // Walk the sorted pool through the period tiers; distribute messages over
  // ECUs round-robin so every ECU owns a mix of priorities.
  std::size_t index = 0;
  std::size_t ecu_cursor = 0;
  auto next_ecu = [&]() -> EcuDescriptor& {
    EcuDescriptor& ecu = ecus_[ecu_cursor];
    ecu_cursor = (ecu_cursor + 1) % ecus_.size();
    return ecu;
  };

  const int periodic_ids = kTotalIds - kEventIds;
  int tier_index = 0;
  int remaining_in_tier = kTiers[0].count;
  for (int i = 0; i < periodic_ids; ++i, ++index) {
    while (remaining_in_tier == 0 &&
           tier_index + 1 < static_cast<int>(std::size(kTiers))) {
      ++tier_index;
      remaining_in_tier = kTiers[tier_index].count;
    }
    const Tier& tier = kTiers[static_cast<std::size_t>(tier_index)];
    if (remaining_in_tier > 0) --remaining_in_tier;

    can::MessageSpec spec;
    spec.id = can::CanId::standard(id_pool_[index]);
    spec.period = std::max<util::TimeNs>(
        static_cast<util::TimeNs>(static_cast<double>(tier.period) *
                                  config_.period_scale),
        1);
    spec.dlc = 8;
    spec.payload = tier.payload;
    next_ecu().messages.push_back(spec);
  }

  // The tail of the pool becomes behaviour-gated event messages, spread
  // across behaviours round-robin.
  for (int j = 0; j < kEventIds; ++j, ++index) {
    can::MessageSpec spec;
    spec.id = can::CanId::standard(id_pool_[index]);
    spec.period = std::max<util::TimeNs>(
        static_cast<util::TimeNs>(static_cast<double>(kEventPeriod) *
                                  config_.period_scale),
        1);
    spec.dlc = 4;
    spec.payload = can::PayloadKind::kCounter;
    const DrivingBehavior behavior =
        kAllBehaviors[static_cast<std::size_t>(j) % kAllBehaviors.size()];
    next_ecu().event_messages.emplace_back(behavior, spec);
  }
}

std::vector<std::uint32_t> SyntheticVehicle::ids_of_ecu(
    std::size_t index) const {
  CANIDS_EXPECTS(index < ecus_.size());
  std::vector<std::uint32_t> ids;
  for (const can::MessageSpec& spec : ecus_[index].messages) {
    ids.push_back(spec.id.raw());
  }
  for (const auto& [behavior, spec] : ecus_[index].event_messages) {
    ids.push_back(spec.id.raw());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

double SyntheticVehicle::id_space_usage() const noexcept {
  return static_cast<double>(id_pool_.size()) /
         static_cast<double>(can::kMaxStdId + 1);
}

std::vector<int> SyntheticVehicle::attach_to(can::BusSimulator& bus,
                                             DrivingBehavior behavior,
                                             std::uint64_t run_seed) const {
  util::Rng run_rng(run_seed);
  std::vector<int> node_indices;
  node_indices.reserve(ecus_.size());

  for (const EcuDescriptor& ecu : ecus_) {
    std::vector<can::MessageSpec> specs = ecu.messages;
    for (const auto& [gate, spec] : ecu.event_messages) {
      if (gate == behavior) specs.push_back(spec);
    }
    if (specs.empty()) continue;
    // Per-run phase offsets desynchronise the periodic schedules the way
    // independent ECU clocks do on a real bus.
    for (can::MessageSpec& spec : specs) {
      spec.offset = static_cast<util::TimeNs>(
          run_rng.below(static_cast<std::uint64_t>(spec.period)));
    }
    auto& node = bus.emplace_node<can::PeriodicSender>(
        ecu.name, std::move(specs), run_rng.fork());
    node_indices.push_back(bus.find_node(node.name()));
  }
  return node_indices;
}

Trace SyntheticVehicle::record_trace(DrivingBehavior behavior,
                                     util::TimeNs duration,
                                     std::uint64_t run_seed) const {
  can::BusSimulator bus(config_.bus);
  attach_to(bus, behavior, run_seed);
  TraceRecorder recorder(bus, "can0");
  bus.run_until(duration);
  return recorder.take();
}

std::unique_ptr<TraceSource> SyntheticVehicle::stream_trace(
    DrivingBehavior behavior, util::TimeNs duration,
    std::uint64_t run_seed) const {
  return std::make_unique<SyntheticVehicleSource>(*this, behavior, duration,
                                                  run_seed);
}

SyntheticVehicleSource::SyntheticVehicleSource(const SyntheticVehicle& vehicle,
                                               DrivingBehavior behavior,
                                               util::TimeNs duration,
                                               std::uint64_t run_seed)
    : bus_(vehicle.config().bus), source_(bus_, duration) {
  vehicle.attach_to(bus_, behavior, run_seed);
}

std::optional<can::TimedFrame> SyntheticVehicleSource::next() {
  return source_.next();
}

}  // namespace canids::trace
