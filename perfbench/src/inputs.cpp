#include "inputs.h"

#include <atomic>
#include <fstream>
#include <optional>
#include <string>

#include "attacks/scenario.h"
#include "can/bus.h"
#include "common.h"
#include "metrics/experiment.h"
#include "model/store.h"
#include "trace/binary_trace.h"
#include "trace/synthetic_vehicle.h"
#include "util/rng.h"

namespace perfbench {

namespace cn = canids;

namespace {

constexpr cn::util::TimeNs kFleetDrive = 20 * cn::util::kSecond;
constexpr std::size_t kFleetFramesPerStream = 500'000;

/// One simulated drive of the default vehicle, optionally attacked for its
/// whole length. Timestamps are cut to whole microseconds, the resolution
/// of candump text, so text and binary forms of a stream are identical.
std::vector<cn::can::TimedFrame> simulate(
    const cn::trace::SyntheticVehicle& vehicle,
    cn::trace::DrivingBehavior behavior, std::uint64_t run_seed,
    cn::util::TimeNs duration,
    std::optional<cn::attacks::ScenarioKind> attack = std::nullopt,
    std::uint64_t attack_seed = 0) {
  cn::can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, behavior, run_seed);
  cn::attacks::BuiltAttack built;
  if (attack) {
    cn::attacks::AttackConfig config;
    config.frequency_hz = 100.0;
    config.start = 0;
    config.stop = duration;
    built = cn::attacks::make_scenario(*attack, vehicle, config,
                                       cn::util::Rng(attack_seed));
    cn::attacks::attach_attack(bus, built);
  }
  std::vector<cn::can::TimedFrame> frames;
  bus.add_listener(
      [&frames](const cn::can::TimedFrame& frame) { frames.push_back(frame); });
  bus.run_until(duration);
  for (cn::can::TimedFrame& frame : frames) {
    frame.timestamp -= frame.timestamp % cn::util::kMicrosecond;
  }
  return frames;
}

void write_frames(const std::filesystem::path& path,
                  const std::vector<cn::can::TimedFrame>& frames) {
  cn::trace::Trace trace;
  trace.reserve(frames.size());
  for (const cn::can::TimedFrame& frame : frames) {
    trace.push_back(cn::trace::LogRecord{frame.timestamp, "can0", frame.frame});
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  cn::trace::write_binary_trace(out, trace);
  check(static_cast<bool>(out), "cannot write " + path.string());
}

/// Train every persistable model on clean traffic of the default vehicle
/// (the same training a campaign performs) and save the bundle.
void write_models(std::uint64_t seed, const std::filesystem::path& dir) {
  cn::metrics::ExperimentConfig config;
  config.seed = mix_seed(seed, 1000);
  cn::metrics::ExperimentRunner runner(config);
  cn::model::save_models_file(dir / "models.cbm",
                              runner.trained_models().stored());
}

/// Run `jobs` indices over at most hardware_threads() threads.
template <typename Job>
void parallel_for(int jobs, const Job& job) {
  std::atomic<int> next{0};
  run_threads(std::min(jobs, hardware_threads()), [&] {
    for (int i = next++; i < jobs; i = next++) job(i);
  });
}

}  // namespace

void generate_fleet(std::uint64_t seed, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir / "fleet");
  const cn::trace::SyntheticVehicle vehicle;
  parallel_for(kFleetStreams, [&](int i) {
    const auto behavior =
        cn::trace::kAllBehaviors[static_cast<std::size_t>(i) %
                                 cn::trace::kAllBehaviors.size()];
    const std::vector<cn::can::TimedFrame> drive =
        simulate(vehicle, behavior, mix_seed(seed, static_cast<std::uint64_t>(i)),
                 kFleetDrive);
    check(!drive.empty(), "empty simulated drive");
    std::vector<cn::can::TimedFrame> tiled;
    tiled.reserve(kFleetFramesPerStream + drive.size());
    for (cn::util::TimeNs shift = 0; tiled.size() < kFleetFramesPerStream;
         shift += kFleetDrive) {
      for (cn::can::TimedFrame frame : drive) {
        frame.timestamp += shift;
        tiled.push_back(frame);
      }
    }
    char name[32];
    std::snprintf(name, sizeof name, "veh-%02d.bt", i);
    write_frames(dir / "fleet" / name, tiled);
  });
  write_models(seed, dir);
}

void generate_serve(std::uint64_t seed, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir / "serve");
  const cn::trace::SyntheticVehicle vehicle;
  parallel_for(kServeStreams, [&](int k) {
    const auto behavior =
        cn::trace::kAllBehaviors[static_cast<std::size_t>(k) %
                                 cn::trace::kAllBehaviors.size()];
    const std::uint64_t run_seed =
        mix_seed(seed, 500 + static_cast<std::uint64_t>(k));
    const std::vector<cn::can::TimedFrame> clean =
        simulate(vehicle, behavior, run_seed, kServeLoopSpan);
    const std::vector<cn::can::TimedFrame> attacked =
        simulate(vehicle, behavior, run_seed, kServeLoopSpan,
                 cn::attacks::ScenarioKind::kSingle, mix_seed(run_seed, 1));
    check(!clean.empty() && !attacked.empty(), "empty simulated drive");
    // Window m of the loop comes from the clean drive when m is even and
    // from the attacked drive when m is odd; the boundaries are the ones
    // the detector's window clock uses (anchored at the first frame).
    const cn::util::TimeNs origin = clean.front().timestamp;
    std::vector<cn::can::TimedFrame> loop;
    for (int m = 0; m < kServeLoopWindows; ++m) {
      const auto& source = m % 2 == 0 ? clean : attacked;
      const cn::util::TimeNs lo = origin + m * cn::util::kSecond;
      const cn::util::TimeNs hi = lo + cn::util::kSecond;
      for (const cn::can::TimedFrame& frame : source) {
        if (frame.timestamp >= lo && frame.timestamp < hi) {
          loop.push_back(frame);
        }
      }
    }
    write_frames(dir / "serve" / ("veh-" + std::to_string(k) + ".bt"), loop);
  });
  write_models(seed, dir);
}

std::vector<cn::can::TimedFrame> read_frames(
    const std::filesystem::path& path) {
  cn::trace::BinaryTraceSource source(path);
  std::vector<cn::can::TimedFrame> frames;
  frames.reserve(source.record_count());
  while (source.fill(frames, 1 << 16) > 0) {
  }
  return frames;
}

}  // namespace perfbench
