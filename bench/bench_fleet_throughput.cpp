// FLEET — aggregate detection throughput of a run_fleet batch replay vs.
// shard count (16 streams, never fewer than the threads, so run_fleet
// judges inline on one producer thread per shard), against the
// single-pipeline sequential baseline. The paper's
// detector keeps 11 counters per stream, so the per-frame work is tiny and
// the question is how well the fan-out turns cores into frames/sec.
//
//   ./bench_fleet_throughput
//
// Items processed = frames through the full ingest -> window -> detect
// path. Shard counts above the machine's core count cannot add
// speed-up; run on a multi-core host to see the scaling curve.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/registry.h"
#include "engine/fleet_engine.h"
#include "ids/golden_template.h"
#include "ids/pipeline.h"
#include "ids/window.h"
#include "trace/synthetic_vehicle.h"
#include "trace/trace_source.h"

using namespace canids;

namespace {

constexpr int kVehicles = 8;
constexpr int kStreamsPerVehicle = 2;  // 16 streams total
constexpr util::TimeNs kDriveSeconds = 4 * util::kSecond;

/// One captured drive per simulated vehicle, shared across benchmarks.
const std::vector<std::vector<can::TimedFrame>>& fleet_traffic() {
  static const std::vector<std::vector<can::TimedFrame>> traffic = [] {
    std::vector<std::vector<can::TimedFrame>> all;
    const trace::SyntheticVehicle vehicle;
    for (int v = 0; v < kVehicles; ++v) {
      const auto behavior =
          trace::kAllBehaviors[static_cast<std::size_t>(v) %
                               trace::kAllBehaviors.size()];
      auto source = vehicle.stream_trace(behavior, kDriveSeconds,
                                         0xF1EE7 + static_cast<std::uint64_t>(v));
      all.push_back(source->drain());
    }
    return all;
  }();
  return traffic;
}

std::shared_ptr<const ids::GoldenTemplate> fleet_template() {
  static const std::shared_ptr<const ids::GoldenTemplate> golden = [] {
    const trace::SyntheticVehicle vehicle;
    ids::TemplateBuilder builder;
    for (int run = 0; run < 3; ++run) {
      auto source = vehicle.stream_trace(
          trace::kAllBehaviors[static_cast<std::size_t>(run)],
          8 * util::kSecond, 0xC0FFEE + static_cast<std::uint64_t>(run));
      ids::WindowConfig window;
      for (const ids::WindowSnapshot& snap :
           ids::windows_of(source->drain(), window)) {
        if (snap.end - snap.start == window.duration) {
          builder.add_window(snap);
        }
      }
    }
    return std::make_shared<const ids::GoldenTemplate>(builder.build());
  }();
  return golden;
}

std::size_t total_frames() {
  std::size_t frames = 0;
  for (const auto& trace : fleet_traffic()) {
    frames += trace.size() * kStreamsPerVehicle;
  }
  return frames;
}

void BM_Fleet_Throughput(benchmark::State& state) {
  analysis::DetectorOptions options;
  options.golden = fleet_template();
  const auto& traffic = fleet_traffic();
  const int shards = static_cast<int>(state.range(0));

  for (auto _ : state) {
    // Copying the traces into fresh sources is setup, not fleet work.
    state.PauseTiming();
    std::vector<engine::NamedSource> sources;
    for (int copy = 0; copy < kStreamsPerVehicle; ++copy) {
      for (std::size_t v = 0; v < traffic.size(); ++v) {
        sources.push_back(engine::NamedSource{
            "veh-" + std::to_string(copy * kVehicles) + std::to_string(v),
            std::make_unique<trace::MemorySource>(traffic[v]),
            {}});
      }
    }
    state.ResumeTiming();
    engine::FleetConfig config;
    config.shards = shards;
    engine::FleetEngine fleet(analysis::make_detector("bit-entropy", options),
                              config);
    engine::FleetRunResult run = engine::run_fleet(fleet, std::move(sources));
    benchmark::DoNotOptimize(fleet.totals().windows_closed);
    if (!run.errors.empty()) state.SkipWithError("ingest error");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_frames()));
}
BENCHMARK(BM_Fleet_Throughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Baseline: the pre-engine model — one pipeline at a time, one thread.
/// It judges the same blocks the engine does (FleetConfig::drain_batch
/// TimedIds per on_frames call, built from the frames inside the timed
/// loop like the engine's fill), so the engine/baseline ratio measures the
/// engine and not a per-frame vs. batched scoring gap.
void BM_Sequential_Baseline(benchmark::State& state) {
  const auto golden = fleet_template();
  const auto& traffic = fleet_traffic();
  const std::size_t block_size = engine::FleetConfig{}.drain_batch;

  std::vector<can::TimedId> block;
  block.reserve(block_size);
  std::vector<ids::WindowReport> reports;
  for (auto _ : state) {
    std::uint64_t windows = 0;
    for (int copy = 0; copy < kStreamsPerVehicle; ++copy) {
      for (const auto& trace : traffic) {
        ids::IdsPipeline pipeline(golden, {}, ids::PipelineConfig{});
        for (std::size_t at = 0; at < trace.size(); at += block_size) {
          const std::size_t end = std::min(trace.size(), at + block_size);
          block.clear();
          for (std::size_t i = at; i < end; ++i) {
            block.push_back(can::TimedId{trace[i].timestamp,
                                         trace[i].frame.id()});
          }
          reports.clear();
          pipeline.on_frames(block.data(), block.size(), reports);
          benchmark::DoNotOptimize(reports.data());
        }
        pipeline.finish();
        windows += pipeline.counters().windows_closed;
      }
    }
    benchmark::DoNotOptimize(windows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_frames()));
}
BENCHMARK(BM_Sequential_Baseline)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
