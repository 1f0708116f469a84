// MICRO — the §V.E "light-weight detection algorithm" claim, measured with
// google-benchmark: per-frame monitoring cost and per-window decision cost
// of the bit-slice detector vs both baselines, the cost of naming the
// injected IDs of one alerted window (§V.C inference), plus the substrate
// hot paths (serialization, wire timing, arbitration, one simulated second
// of the bus) for context.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "attacks/scenario.h"
#include "baselines/interval_ids.h"
#include "baselines/muter_entropy.h"
#include "can/arbitration.h"
#include "can/bitstream.h"
#include "can/bus.h"
#include "ids/bit_counters.h"
#include "ids/binary_entropy.h"
#include "ids/inference.h"
#include "ids/pipeline.h"
#include "metrics/experiment.h"
#include "trace/synthetic_vehicle.h"

using namespace canids;

namespace {

/// Shared captured traffic so every benchmark sees identical frames.
const trace::Trace& capture() {
  static const trace::Trace trace = [] {
    const trace::SyntheticVehicle vehicle;
    return vehicle.record_trace(trace::DrivingBehavior::kCity,
                                5 * util::kSecond, 4711);
  }();
  return trace;
}

void BM_BitSlice_CountFrame(benchmark::State& state) {
  const trace::Trace& trace = capture();
  ids::BitCounters counters;
  benchmark::DoNotOptimize(&counters);  // escape: keep the stores alive
  std::size_t i = 0;
  for (auto _ : state) {
    counters.add(trace[i].frame.id().raw());
    benchmark::ClobberMemory();
    i = (i + 1) % trace.size();
  }
  benchmark::DoNotOptimize(counters.total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitSlice_CountFrame);

void BM_BitSlice_CountFramePairs(benchmark::State& state) {
  const trace::Trace& trace = capture();
  ids::PairCounters counters;
  benchmark::DoNotOptimize(&counters);
  std::size_t i = 0;
  for (auto _ : state) {
    counters.add(trace[i].frame.id().raw());
    benchmark::ClobberMemory();
    i = (i + 1) % trace.size();
  }
  benchmark::DoNotOptimize(counters.total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitSlice_CountFramePairs);

void BM_Muter_CountFrame(benchmark::State& state) {
  const trace::Trace& trace = capture();
  std::unordered_map<std::uint32_t, std::uint64_t> histogram;
  std::size_t i = 0;
  for (auto _ : state) {
    ++histogram[trace[i].frame.id().raw()];
    i = (i + 1) % trace.size();
  }
  benchmark::DoNotOptimize(histogram.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Muter_CountFrame);

void BM_Interval_ObserveFrame(benchmark::State& state) {
  const trace::Trace& trace = capture();
  baselines::IntervalIds interval;
  for (const trace::LogRecord& r : trace) {
    interval.train(r.timestamp, r.frame.id().raw());
  }
  interval.finish_training();
  std::size_t i = 0;
  util::TimeNs shift = 0;
  for (auto _ : state) {
    if (i == 0) shift += 5 * util::kSecond;
    benchmark::DoNotOptimize(
        interval.observe(trace[i].timestamp + shift, trace[i].frame.id().raw()));
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Interval_ObserveFrame);

void BM_BitSlice_WindowDecision(benchmark::State& state) {
  const trace::Trace& trace = capture();
  ids::BitCounters counters;
  for (const trace::LogRecord& r : trace) {
    counters.add(r.frame.id().raw());
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (int bit = 0; bit < 11; ++bit) {
      sum += ids::binary_entropy(counters.probability(bit));
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitSlice_WindowDecision);

void BM_BitSlice_WindowSnapshot(benchmark::State& state) {
  const trace::Trace& trace = capture();
  ids::BitCounters counters;
  for (const trace::LogRecord& r : trace) {
    counters.add(r.frame.id().raw());
  }
  std::vector<double> probabilities;
  std::vector<double> entropies;
  for (auto _ : state) {
    counters.snapshot_into(probabilities, entropies);
    benchmark::DoNotOptimize(entropies.data());
  }
}
BENCHMARK(BM_BitSlice_WindowSnapshot);

void BM_Muter_WindowDecision(benchmark::State& state) {
  const trace::Trace& trace = capture();
  std::unordered_map<std::uint32_t, std::uint64_t> histogram;
  std::uint64_t total = 0;
  for (const trace::LogRecord& r : trace) {
    ++histogram[r.frame.id().raw()];
    ++total;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baselines::id_distribution_entropy(histogram, total));
  }
}
BENCHMARK(BM_Muter_WindowDecision);

void BM_Substrate_SerializeFrame(benchmark::State& state) {
  const trace::Trace& trace = capture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(can::serialize(trace[i].frame));
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Substrate_SerializeFrame);

void BM_Substrate_WireBitLength(benchmark::State& state) {
  const trace::Trace& trace = capture();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(can::wire_bit_length(trace[i].frame));
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Substrate_WireBitLength);

/// One simulated second of the 223-ID vehicle under a 100 Hz single-ID
/// injection, bus construction included: the simulator stage of a campaign
/// trial. Items are frames delivered on the bus.
void BM_Substrate_SimulatedSecond(benchmark::State& state) {
  const trace::SyntheticVehicle vehicle;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    can::BusSimulator bus(vehicle.config().bus);
    vehicle.attach_to(bus, trace::DrivingBehavior::kCity, 17);
    attacks::AttackConfig config;
    config.frequency_hz = 100.0;
    auto attack = attacks::make_scenario(attacks::ScenarioKind::kSingle,
                                         vehicle, config, util::Rng(18));
    attacks::attach_attack(bus, attack);
    bus.run_until(util::kSecond);
    frames += bus.stats().frames_transmitted;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
  state.counters["frames"] = benchmark::Counter(
      static_cast<double>(frames), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Substrate_SimulatedSecond)->Unit(benchmark::kMicrosecond);

void BM_Substrate_Arbitrate8(benchmark::State& state) {
  const trace::Trace& trace = capture();
  std::vector<can::Frame> contenders;
  for (std::size_t i = 0; i < 8; ++i) {
    contenders.push_back(trace[i * 37 % trace.size()].frame);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(can::arbitrate(contenders));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Substrate_Arbitrate8);

void BM_BinaryEntropy(benchmark::State& state) {
  double p = 0.0;
  for (auto _ : state) {
    p += 0.001;
    if (p >= 1.0) p = 0.0;
    benchmark::DoNotOptimize(ids::binary_entropy(p));
  }
}
BENCHMARK(BM_BinaryEntropy);

/// The paper-trained template (pairs on), the vehicle's ID pool, and the
/// first alerted window inside a 100 Hz injection of `kind` on the
/// simulated bus.
struct InferenceCase {
  std::shared_ptr<const ids::GoldenTemplate> golden;
  std::vector<std::uint32_t> id_pool;
  std::optional<ids::WindowSnapshot> alerted;
};

InferenceCase make_inference_case(attacks::ScenarioKind kind) {
  metrics::ExperimentRunner runner;
  InferenceCase made{runner.train_shared(), runner.vehicle().id_pool(), {}};
  const trace::SyntheticVehicle& vehicle = runner.vehicle();
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kCity, 17);
  attacks::AttackConfig config;
  config.frequency_hz = 100.0;
  config.start = 2 * util::kSecond;
  config.stop = 6 * util::kSecond;
  auto attack = attacks::make_scenario(kind, vehicle, config, util::Rng(18));
  attacks::attach_attack(bus, attack);
  ids::IdsPipeline pipeline(made.golden, {}, ids::PipelineConfig{});
  bus.add_listener([&](const can::TimedFrame& frame) {
    auto report = pipeline.on_frame(frame.timestamp, frame.frame.id());
    if (!made.alerted && report && report->detection.alert &&
        report->snapshot.start >= config.start) {
      made.alerted = std::move(report->snapshot);
    }
  });
  bus.run_until(config.stop);
  return made;
}

/// Times one inference over the case's alerted window.
void run_inference(benchmark::State& state, const InferenceCase& c) {
  if (!c.alerted) {
    state.SkipWithError("no alerted window");
    return;
  }
  const ids::InferenceEngine engine(c.golden, c.id_pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.infer(*c.alerted));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["pool_ids"] = static_cast<double>(c.id_pool.size());
}

void BM_Inference_Single(benchmark::State& state) {
  static const InferenceCase c =
      make_inference_case(attacks::ScenarioKind::kSingle);
  run_inference(state, c);
}
BENCHMARK(BM_Inference_Single)->Unit(benchmark::kMillisecond);

void BM_Inference_Multi3(benchmark::State& state) {
  static const InferenceCase c =
      make_inference_case(attacks::ScenarioKind::kMulti3);
  run_inference(state, c);
}
BENCHMARK(BM_Inference_Multi3)->Unit(benchmark::kMillisecond);

void BM_Inference_Multi4(benchmark::State& state) {
  static const InferenceCase c =
      make_inference_case(attacks::ScenarioKind::kMulti4);
  run_inference(state, c);
}
BENCHMARK(BM_Inference_Multi4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
