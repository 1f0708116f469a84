#include "trace/synthetic_vehicle.h"

#include <gtest/gtest.h>

#include <set>

#include "trace/trace_io.h"

namespace canids::trace {
namespace {

TEST(SyntheticVehicleTest, IdPoolMatchesPaperCount) {
  const SyntheticVehicle vehicle;
  EXPECT_EQ(vehicle.id_pool().size(), 223u);
  // Paper: 223 IDs = 10.88 % of the standard ID space.
  EXPECT_NEAR(vehicle.id_space_usage(), 0.1088, 0.0005);
}

TEST(SyntheticVehicleTest, IdPoolSortedUniqueAndInRange) {
  const SyntheticVehicle vehicle;
  const auto& pool = vehicle.id_pool();
  for (std::size_t i = 1; i < pool.size(); ++i) {
    EXPECT_LT(pool[i - 1], pool[i]);
  }
  // The assigned range avoids the extremes of the standard ID space.
  EXPECT_GE(pool.front(), 0x040u);
  EXPECT_LE(pool.back(), 0x7EFu);
}

TEST(SyntheticVehicleTest, DeterministicForSameSeed) {
  const SyntheticVehicle a;
  const SyntheticVehicle b;
  EXPECT_EQ(a.id_pool(), b.id_pool());
}

TEST(SyntheticVehicleTest, DifferentSeedDifferentLayout) {
  VehicleConfig config;
  config.seed = 0xDEADBEEF;
  const SyntheticVehicle other(config);
  const SyntheticVehicle standard;
  EXPECT_NE(other.id_pool(), standard.id_pool());
}

TEST(SyntheticVehicleTest, EveryPoolIdAssignedToExactlyOneEcu) {
  const SyntheticVehicle vehicle;
  std::multiset<std::uint32_t> assigned;
  for (std::size_t e = 0; e < vehicle.ecus().size(); ++e) {
    for (std::uint32_t id : vehicle.ids_of_ecu(e)) assigned.insert(id);
  }
  ASSERT_EQ(assigned.size(), vehicle.id_pool().size());
  for (std::uint32_t id : vehicle.id_pool()) {
    EXPECT_EQ(assigned.count(id), 1u) << "ID " << id;
  }
}

TEST(SyntheticVehicleTest, RecordTraceProducesPlausibleTraffic) {
  const SyntheticVehicle vehicle;
  const Trace trace =
      vehicle.record_trace(DrivingBehavior::kCity, 2 * util::kSecond, 42);
  const TraceSummary summary = summarize(trace);
  // ~870 periodic frames/s; allow wide tolerance for arbitration backlog.
  EXPECT_GT(summary.frames_per_second, 500.0);
  EXPECT_LT(summary.frames_per_second, 1200.0);
  // All observed IDs belong to the pool.
  const auto& pool = vehicle.id_pool();
  for (const LogRecord& r : trace) {
    EXPECT_TRUE(std::binary_search(pool.begin(), pool.end(),
                                   r.frame.id().raw()));
  }
}

TEST(SyntheticVehicleTest, BusLoadInUsefulRegime) {
  const SyntheticVehicle vehicle;
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, DrivingBehavior::kHighway, 7);
  bus.run_until(3 * util::kSecond);
  // The Fig. 3 injection-rate curve needs meaningful contention: the
  // schedule targets roughly 60-90 % load at 125 kbit/s.
  EXPECT_GT(bus.stats().load(), 0.5);
  EXPECT_LT(bus.stats().load(), 0.95);
}

TEST(SyntheticVehicleTest, BehaviorsChangeActiveEventIds) {
  const SyntheticVehicle vehicle;
  std::set<std::uint32_t> idle_ids;
  std::set<std::uint32_t> audio_ids;
  for (const LogRecord& r :
       vehicle.record_trace(DrivingBehavior::kIdle, 3 * util::kSecond, 1)) {
    idle_ids.insert(r.frame.id().raw());
  }
  for (const LogRecord& r : vehicle.record_trace(DrivingBehavior::kAudioOn,
                                                 3 * util::kSecond, 1)) {
    audio_ids.insert(r.frame.id().raw());
  }
  // Audio-gated event IDs appear only under the audio behaviour.
  std::set<std::uint32_t> only_audio;
  for (std::uint32_t id : audio_ids) {
    if (idle_ids.count(id) == 0) only_audio.insert(id);
  }
  EXPECT_FALSE(only_audio.empty());
}

TEST(SyntheticVehicleTest, DifferentRunSeedsDifferentPhases) {
  const SyntheticVehicle vehicle;
  const Trace a =
      vehicle.record_trace(DrivingBehavior::kCity, util::kSecond, 1);
  const Trace b =
      vehicle.record_trace(DrivingBehavior::kCity, util::kSecond, 2);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  // Same schedule, different offsets: the frame sequence differs.
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < std::min(a.size(), b.size()); ++i) {
    differs = !(a[i].frame == b[i].frame);
  }
  EXPECT_TRUE(differs);
}

TEST(SyntheticVehicleTest, SameRunSeedReproducesExactly) {
  const SyntheticVehicle vehicle;
  const Trace a =
      vehicle.record_trace(DrivingBehavior::kCity, util::kSecond, 99);
  const Trace b =
      vehicle.record_trace(DrivingBehavior::kCity, util::kSecond, 99);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].timestamp, b[i].timestamp);
    EXPECT_EQ(a[i].frame, b[i].frame);
  }
}

TEST(BehaviorNameTest, AllNamed) {
  for (DrivingBehavior behavior : kAllBehaviors) {
    EXPECT_NE(behavior_name(behavior), "unknown");
  }
}

}  // namespace
}  // namespace canids::trace
