#include "engine/fleet_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/registry.h"
#include "ids/bit_counters.h"
#include "ids/golden_template.h"
#include "trace/trace_io.h"
#include "trace/trace_source.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace canids::engine {
namespace {

using ids::BitCounters;
using ids::GoldenTemplate;
using ids::PipelineConfig;
using ids::TemplateBuilder;
using ids::WindowConfig;
using ids::WindowSnapshot;
using util::kSecond;

/// Fleet fixture: one shared template, per-vehicle deterministic frame
/// streams (clean mix plus optional injected bursts), mirroring the
/// pipeline_test world but as materialized TimedFrame sequences.
struct FleetWorld {
  std::vector<std::uint32_t> pool = {0x080, 0x120, 0x1C0, 0x260, 0x300,
                                     0x3A0, 0x440, 0x4E0, 0x580, 0x620};
  std::shared_ptr<const GoldenTemplate> golden;

  FleetWorld() {
    TemplateBuilder builder;
    util::Rng rng(5);
    for (int w = 0; w < 40; ++w) {
      BitCounters counters;
      for (std::uint32_t id : pool) {
        const int count = 30 + static_cast<int>(rng.between(-1, 1));
        for (int i = 0; i < count; ++i) counters.add(id);
      }
      WindowSnapshot snap;
      snap.frames = counters.total();
      snap.probabilities = counters.probabilities();
      snap.entropies = counters.entropies();
      builder.add_window(snap);
    }
    golden = std::make_shared<const GoldenTemplate>(
        builder.build(ids::kPaperTrainingWindows));
  }

  /// `seconds` of traffic; seconds listed in `attacked` get 120 injected
  /// frames of pool[4]. Deterministic per (vehicle_seed).
  [[nodiscard]] std::vector<can::TimedFrame> make_trace(
      std::uint64_t vehicle_seed, int seconds,
      const std::vector<int>& attacked = {}) const {
    std::vector<can::TimedFrame> frames;
    for (int s = 0; s < seconds; ++s) {
      std::vector<std::uint32_t> stream;
      for (std::uint32_t id : pool) {
        for (int i = 0; i < 30; ++i) stream.push_back(id);
      }
      const bool attack =
          std::find(attacked.begin(), attacked.end(), s) != attacked.end();
      if (attack) {
        for (int i = 0; i < 120; ++i) stream.push_back(pool[4]);
      }
      util::Rng shuffle_rng(vehicle_seed * 1000 +
                            static_cast<std::uint64_t>(s));
      for (std::size_t i = stream.size(); i > 1; --i) {
        std::swap(stream[i - 1], stream[shuffle_rng.below(i)]);
      }
      const util::TimeNs start = static_cast<util::TimeNs>(s) * kSecond;
      const util::TimeNs step =
          kSecond / static_cast<util::TimeNs>(stream.size());
      for (std::size_t i = 0; i < stream.size(); ++i) {
        frames.push_back(can::TimedFrame{
            start + static_cast<util::TimeNs>(i) * step,
            can::Frame::data_frame(can::CanId::standard(stream[i]), {}),
            can::TimedFrame::kUnknownSource});
      }
    }
    return frames;
  }

  [[nodiscard]] PipelineConfig pipeline_config() const {
    PipelineConfig config;
    config.window.duration = kSecond;
    return config;
  }

  /// The paper's bit-entropy detector over this world's template.
  [[nodiscard]] std::unique_ptr<analysis::DetectorBackend> bit_entropy(
      const PipelineConfig& pipeline = {}) const {
    analysis::DetectorOptions options;
    options.golden = golden;
    options.pipeline = pipeline;
    return analysis::make_detector("bit-entropy", options);
  }

  /// DetectorOptions driving any registered backend over this world.
  /// Baselines self-calibrate on each stream's first 3 windows.
  [[nodiscard]] analysis::DetectorOptions backend_options() const {
    analysis::DetectorOptions options;
    options.golden = golden;
    options.pipeline = pipeline_config();
    options.calibration_windows = 3;
    return options;
  }
};

/// Sequential reference: one cloned backend over the same frames.
[[nodiscard]] std::vector<analysis::WindowVerdict> sequential_verdicts(
    const analysis::DetectorBackend& prototype,
    const std::vector<std::uint32_t>& pool,
    const std::vector<can::TimedFrame>& frames) {
  const std::unique_ptr<analysis::DetectorBackend> backend =
      prototype.clone_for_stream(pool);
  std::vector<analysis::WindowVerdict> verdicts;
  for (const can::TimedFrame& frame : frames) {
    if (auto verdict = backend->on_frame(frame.timestamp, frame.frame.id())) {
      verdicts.push_back(std::move(*verdict));
    }
  }
  if (auto verdict = backend->finish()) verdicts.push_back(std::move(*verdict));
  return verdicts;
}

/// The acceptance bar for every registered backend: a sharded fleet run
/// produces byte-identical per-stream verdicts to a sequential run,
/// whatever the shard count.
TEST(FleetEngineTest, ShardedRunMatchesSequentialForEveryRegisteredBackend) {
  const FleetWorld world;
  std::map<std::string, std::vector<can::TimedFrame>> traces;
  traces["car-00"] = world.make_trace(1, 6);
  traces["car-01"] = world.make_trace(2, 6, {2, 3});
  traces["car-02"] = world.make_trace(3, 6);
  traces["car-03"] = world.make_trace(4, 6, {1});

  for (const analysis::DetectorEntry& entry : analysis::detector_table()) {
    const std::string_view name = entry.name;
    const std::unique_ptr<analysis::DetectorBackend> reference =
        analysis::make_detector(name, world.backend_options());

    for (const int shards : {1, 3, 8}) {
      FleetConfig config;
      config.shards = shards;
      config.queue_capacity = 256;  // small queues: exercise backpressure
      config.collect_verdicts = true;

      FleetEngine engine(
          analysis::make_detector(name, world.backend_options()), config);
      std::vector<NamedSource> sources;
      for (const auto& [key, frames] : traces) {
        sources.push_back(NamedSource{
            key, std::make_unique<trace::MemorySource>(frames), world.pool});
      }
      FleetRunResult run = run_fleet(engine, std::move(sources));
      ASSERT_TRUE(run.errors.empty());
      ASSERT_EQ(run.streams.size(), traces.size());

      for (const StreamResult& stream : run.streams) {
        const std::vector<analysis::WindowVerdict> expected =
            sequential_verdicts(*reference, world.pool,
                                traces.at(stream.key));
        EXPECT_EQ(stream.verdicts, expected)
            << "backend " << name << ", stream " << stream.key
            << " diverged at " << shards << " shards";
        EXPECT_EQ(stream.counters.frames, traces.at(stream.key).size());
        EXPECT_EQ(stream.counters.parse_errors, 0u);
      }
    }
  }
}

TEST(FleetEngineTest, TotalsAggregateAllStreams) {
  const FleetWorld world;
  FleetConfig config;
  config.shards = 2;

  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);
  std::vector<NamedSource> sources;
  std::size_t expected_frames = 0;
  for (int v = 0; v < 5; ++v) {
    auto frames = world.make_trace(static_cast<std::uint64_t>(v) + 10, 4);
    expected_frames += frames.size();
    sources.push_back(NamedSource{
        "veh-" + std::to_string(v),
        std::make_unique<trace::MemorySource>(std::move(frames)),
        {}});
  }
  FleetRunResult run = run_fleet(engine, std::move(sources));
  ASSERT_TRUE(run.errors.empty());

  ids::PipelineCounters sum;
  for (const StreamResult& stream : run.streams) sum += stream.counters;
  EXPECT_EQ(engine.totals(), sum);
  EXPECT_EQ(engine.totals().frames, expected_frames);
  EXPECT_GT(engine.totals().windows_closed, 0u);
}

TEST(FleetEngineTest, AlertSinkSeesOnlyAttackedStreams) {
  const FleetWorld world;
  FleetConfig config;
  config.shards = 4;

  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);
  std::vector<NamedSource> sources;
  sources.push_back(NamedSource{
      "clean",
      std::make_unique<trace::MemorySource>(world.make_trace(21, 6)),
      world.pool});
  sources.push_back(NamedSource{
      "attacked",
      std::make_unique<trace::MemorySource>(
          world.make_trace(22, 6, {1, 2, 3})),
      world.pool});

  FleetRunResult run = run_fleet(engine, std::move(sources));
  ASSERT_TRUE(run.errors.empty());

  const std::vector<FleetAlert> alerts = engine.alerts().take();
  ASSERT_FALSE(alerts.empty());
  std::size_t counted = 0;
  for (const FleetAlert& alert : alerts) {
    EXPECT_EQ(alert.stream, "attacked");
    EXPECT_TRUE(alert.verdict.alert);
    ASSERT_TRUE(alert.verdict.detail.has_value());
    // Inference runs because the stream was opened with an id pool.
    EXPECT_FALSE(alert.verdict.detail->ranked_candidates.empty());
    ++counted;
  }
  EXPECT_EQ(engine.alerts().count(), counted);
  for (const StreamResult& stream : run.streams) {
    if (stream.key == "clean") {
      EXPECT_EQ(stream.counters.alerts, 0u);
    }
    if (stream.key == "attacked") {
      EXPECT_EQ(stream.counters.alerts, counted);
    }
  }
}

TEST(AlertSinkTest, HandlerModeStreamsWithoutRetaining) {
  AlertSink sink;
  std::size_t seen = 0;
  sink.set_handler([&seen](const FleetAlert&) { ++seen; });
  sink.publish(FleetAlert{"s", {}});
  sink.publish(FleetAlert{"s", {}});
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_TRUE(sink.take().empty()) << "handler mode must not retain";
}

TEST(FleetEngineTest, StreamKeysRouteToStableShards) {
  const FleetWorld world;
  FleetConfig config;
  config.shards = 4;
  FleetEngine engine(world.bit_entropy(), config);
  EXPECT_EQ(engine.shards(), 4);
  for (const std::string key : {"a", "bb", "ccc"}) {
    const int shard = engine.shard_of(key);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, engine.shard_of(key)) << "unstable hash for " << key;
  }
}

TEST(FleetEngineTest, FatalIngestErrorsAreReportedPerStream) {
  const FleetWorld world;

  /// A source that yields a few frames, then fails hard (I/O error,
  /// truncated container) — unlike a per-line ParseError, this ends the
  /// stream.
  class FailingSource final : public trace::TraceSource {
   public:
    explicit FailingSource(std::vector<can::TimedFrame> frames)
        : frames_(std::move(frames)) {}
    std::optional<can::TimedFrame> next() override {
      if (index_ < frames_.size()) return frames_[index_++];
      throw std::runtime_error("synthetic I/O failure");
    }

   private:
    std::vector<can::TimedFrame> frames_;
    std::size_t index_ = 0;
  };

  FleetConfig config;
  config.shards = 2;
  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);

  std::vector<NamedSource> sources;
  sources.push_back(NamedSource{
      "good", std::make_unique<trace::MemorySource>(world.make_trace(31, 3)),
      {}});
  sources.push_back(NamedSource{
      "bad", std::make_unique<FailingSource>(world.make_trace(32, 1)), {}});

  FleetRunResult run = run_fleet(engine, std::move(sources));
  ASSERT_EQ(run.errors.size(), 1u);
  EXPECT_EQ(run.errors[0].first, "bad");
  EXPECT_NE(run.errors[0].second.find("synthetic I/O failure"),
            std::string::npos);
  // Both streams still produce results; the bad one kept its pre-failure
  // frames.
  ASSERT_EQ(run.streams.size(), 2u);
  for (const StreamResult& stream : run.streams) {
    EXPECT_GT(stream.counters.frames, 0u) << stream.key;
  }
}

TEST(FleetEngineTest, ParseErrorsAreCountedAndIngestRecovers) {
  const FleetWorld world;

  /// Simulates a capture with malformed lines sprinkled between frames:
  /// throws ParseError every `period`-th call, like a real parser that has
  /// consumed the bad line and can continue.
  class FlakySource final : public trace::TraceSource {
   public:
    FlakySource(std::vector<can::TimedFrame> frames, std::size_t period)
        : frames_(std::move(frames)), period_(period) {}
    std::optional<can::TimedFrame> next() override {
      ++calls_;
      if (calls_ % period_ == 0) {
        throw trace::ParseError("bad line", calls_);
      }
      if (index_ < frames_.size()) return frames_[index_++];
      return std::nullopt;
    }

   private:
    std::vector<can::TimedFrame> frames_;
    std::size_t period_;
    std::size_t calls_ = 0;
    std::size_t index_ = 0;
  };

  FleetConfig config;
  config.shards = 2;
  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);

  const std::vector<can::TimedFrame> frames = world.make_trace(41, 3);
  std::vector<NamedSource> sources;
  sources.push_back(NamedSource{
      "flaky", std::make_unique<FlakySource>(frames, 100), {}});
  sources.push_back(NamedSource{
      "clean", std::make_unique<trace::MemorySource>(frames), {}});

  FleetRunResult run = run_fleet(engine, std::move(sources));
  ASSERT_TRUE(run.errors.empty())
      << "per-line parse errors must not be fatal";
  ASSERT_EQ(run.streams.size(), 2u);
  for (const StreamResult& stream : run.streams) {
    // Every real frame made it through, malformed lines or not.
    EXPECT_EQ(stream.counters.frames, frames.size()) << stream.key;
    if (stream.key == "flaky") {
      EXPECT_GT(stream.counters.parse_errors, 0u);
    } else {
      EXPECT_EQ(stream.counters.parse_errors, 0u);
    }
  }
  EXPECT_GT(engine.totals().parse_errors, 0u);
}

TEST(FleetEngineTest, RejectsInvalidQueueAndBatchConfig) {
  const FleetWorld world;
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1000},
                                     std::size_t{3}}) {
    FleetConfig config;
    config.queue_capacity = capacity;
    EXPECT_THROW(FleetEngine(world.bit_entropy(), config),
                 std::invalid_argument)
        << "queue_capacity " << capacity;
  }
  {
    FleetConfig config;
    config.drain_batch = 0;
    EXPECT_THROW(FleetEngine(world.bit_entropy(), config),
                 std::invalid_argument);
  }
  // Power-of-two capacities (including 1) construct fine.
  FleetConfig config;
  config.queue_capacity = 1;
  FleetEngine engine(world.bit_entropy(), config);
  EXPECT_EQ(engine.config().queue_capacity, 1u);
}

TEST(FleetEngineTest, TinyQueueAndDrainBatchStillMatchSequential) {
  // The batched queue publish/drain must degrade gracefully at the
  // smallest legal sizes — heavy backpressure, one frame per publish.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(51, 4, {2});

  ids::IdsPipeline sequential(world.golden, {}, world.pipeline_config());
  for (const can::TimedFrame& frame : frames) {
    (void)sequential.on_frame(frame.timestamp, frame.frame.id());
  }
  (void)sequential.finish();
  const std::uint64_t expected_alerts = sequential.counters().alerts;

  FleetConfig config;
  config.shards = 2;
  config.queue_capacity = 2;
  config.drain_batch = 1;
  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);
  std::vector<NamedSource> sources;
  sources.push_back(NamedSource{
      "tiny", std::make_unique<trace::MemorySource>(frames), {}});
  FleetRunResult run = run_fleet(engine, std::move(sources));
  ASSERT_TRUE(run.errors.empty());
  EXPECT_EQ(engine.totals().frames, frames.size());
  EXPECT_EQ(engine.totals().alerts, expected_alerts);
}

TEST(FleetEngineTest, StreamsOpenedWhileRunningMatchPreStartStreams) {
  // The live-service pattern: clients connect after start(). A stream
  // opened mid-run must produce exactly the verdicts of one opened before.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(61, 5, {1, 3});

  const auto run_with = [&](bool open_before_start) {
    FleetConfig config;
    config.shards = 2;
    config.collect_verdicts = true;
    FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);
    std::optional<FleetEngine::Stream> stream;
    if (open_before_start) stream = engine.open_stream("veh");
    engine.start();
    if (!open_before_start) stream = engine.open_stream("veh");
    for (const can::TimedFrame& frame : frames) {
      stream->push(frame.timestamp, frame.frame.id());
    }
    stream->close();
    std::vector<StreamResult> results = engine.finish();
    return results.at(0).verdicts;
  };

  const std::vector<analysis::WindowVerdict> before = run_with(true);
  const std::vector<analysis::WindowVerdict> after = run_with(false);
  ASSERT_FALSE(before.empty());
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].start, after[i].start);
    EXPECT_EQ(before[i].frames, after[i].frames);
    EXPECT_EQ(before[i].alert, after[i].alert);
    EXPECT_EQ(before[i].metric, after[i].metric);
  }
}

TEST(FleetEngineTest, MidWindowDisconnectFlushesFinalPartialWindow) {
  // A client hanging up 2.5 windows in must still get the half window
  // judged — same accounting as a sequential backend's finish().
  const FleetWorld world;
  std::vector<can::TimedFrame> frames = world.make_trace(71, 3);
  // Truncate mid-window: keep everything before t = 2.5 s.
  std::erase_if(frames, [](const can::TimedFrame& frame) {
    return frame.timestamp >= 2 * kSecond + kSecond / 2;
  });

  const std::unique_ptr<analysis::DetectorBackend> sequential =
      analysis::make_detector("bit-entropy", world.backend_options())
          ->clone_for_stream();
  std::uint64_t sequential_windows = 0;
  for (const can::TimedFrame& frame : frames) {
    if (sequential->on_frame(frame.timestamp, frame.frame.id())) {
      ++sequential_windows;
    }
  }
  ASSERT_TRUE(sequential->finish().has_value());  // the partial window
  ++sequential_windows;
  EXPECT_EQ(sequential_windows, 3u);  // 2 full + 1 partial

  FleetConfig config;
  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);
  engine.start();
  FleetEngine::Stream stream = engine.open_stream("veh");
  for (const can::TimedFrame& frame : frames) {
    stream.push(frame.timestamp, frame.frame.id());
  }
  stream.close();
  const std::vector<StreamResult> results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].counters.windows_closed, sequential_windows);
  EXPECT_EQ(results[0].counters.frames, frames.size());
}

TEST(FleetEngineTest, DropNewestBackpressureCountsDiscardedFrames) {
  const FleetWorld world;
  FleetConfig config;
  config.queue_capacity = 8;
  config.on_full = BackpressurePolicy::kDropNewest;
  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);

  // Workers not started: the queue cannot drain, so pushes past the ring's
  // usable capacity must be discarded and counted instead of blocking
  // forever. (The ring rounds up internally, so we assert the accounting
  // invariant rather than an exact in-flight count.)
  FleetEngine::Stream stream = engine.open_stream("veh");
  const std::uint64_t pushed = 50;
  for (std::uint64_t i = 0; i < pushed; ++i) {
    stream.push(static_cast<util::TimeNs>(i), can::CanId::standard(0x080));
  }
  EXPECT_GT(stream.queue_dropped(), 0u);
  EXPECT_LT(stream.queue_dropped(), pushed);

  engine.start();
  stream.close();
  const std::vector<StreamResult> results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  // Disjoint accounting: detector-fed frames + queue-dropped == pushed.
  EXPECT_EQ(results[0].counters.queue_dropped, stream.queue_dropped());
  EXPECT_EQ(results[0].counters.frames + results[0].counters.queue_dropped,
            pushed);
}

TEST(FleetEngineTest, ReloadingIdenticalModelsKeepsVerdictsAndBumpsGeneration) {
  // The hot-reload invariant the live service's CI gate rests on: swapping
  // in the same trained models mid-stream must not change any verdict,
  // even when the swap lands mid-window.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(81, 6, {2, 4});

  const auto run_with_reload_at = [&](std::size_t reload_index) {
    FleetConfig config;
    config.collect_verdicts = true;
    // Inference on (id_pool set): a reload must also preserve the ranked
    // malicious-ID candidates, not just the alert bit and metric.
    analysis::DetectorOptions options = world.backend_options();
    options.id_pool = world.pool;
    FleetEngine engine(analysis::make_detector("bit-entropy", options),
                       config);
    engine.start();
    FleetEngine::Stream stream = engine.open_stream("veh");
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (i == reload_index) {
        analysis::ModelRefs refs;
        refs.golden = world.golden;
        engine.reload_models(refs);
      }
      stream.push(frames[i].timestamp, frames[i].frame.id());
    }
    stream.close();
    std::vector<StreamResult> results = engine.finish();
    return std::pair{engine.model_generation(),
                     std::move(results.at(0).verdicts)};
  };

  const auto [gen_none, baseline] = run_with_reload_at(frames.size() + 1);
  const auto [gen_mid, reloaded] = run_with_reload_at(frames.size() / 2);
  EXPECT_EQ(gen_none, 0u);
  EXPECT_EQ(gen_mid, 1u);
  ASSERT_FALSE(baseline.empty());
  ASSERT_EQ(baseline.size(), reloaded.size());
  bool saw_candidates = false;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].start, reloaded[i].start);
    EXPECT_EQ(baseline[i].frames, reloaded[i].frames);
    EXPECT_EQ(baseline[i].alert, reloaded[i].alert);
    EXPECT_EQ(baseline[i].metric, reloaded[i].metric);
    EXPECT_EQ(baseline[i].detail, reloaded[i].detail);
    if (baseline[i].detail && !baseline[i].detail->ranked_candidates.empty()) {
      saw_candidates = true;
    }
  }
  EXPECT_TRUE(saw_candidates);  // the trace must actually exercise inference
}

TEST(FleetEngineTest, ReloadRejectsIncompatibleModelsAtomically) {
  const FleetWorld world;
  FleetConfig config;
  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);
  engine.start();
  FleetEngine::Stream stream = engine.open_stream("veh");

  // A template of a different bit width (29-bit extended vs the fleet's
  // 11-bit standard) must be rejected whole — no stream half-reloaded,
  // generation unchanged.
  // The snapshot of 40 frames all carrying the extended ID 0x1FF0001.
  ids::TemplateBuilder builder(can::kExtIdBits);
  ids::WindowSnapshot snap;
  snap.frames = 40;
  for (int bit = 0; bit < can::kExtIdBits; ++bit) {
    snap.probabilities.push_back(
        ((0x1FF0001u >> (can::kExtIdBits - 1 - bit)) & 1u) != 0 ? 1.0 : 0.0);
    snap.entropies.push_back(0.0);
  }
  for (int w = 0; w < 3; ++w) builder.add_window(snap);
  analysis::ModelRefs bad;
  bad.golden =
      std::make_shared<const ids::GoldenTemplate>(builder.build(3));
  EXPECT_THROW(engine.reload_models(bad), std::invalid_argument);
  EXPECT_EQ(engine.model_generation(), 0u);

  stream.close();
  engine.finish();
}

TEST(FleetEngineTest, StatusReportsLiveCountersAndDrainState) {
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(91, 3);
  FleetConfig config;
  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);
  engine.start();

  FleetEngine::Stream stream = engine.open_stream("veh-a");
  for (const can::TimedFrame& frame : frames) {
    stream.push(frame.timestamp, frame.frame.id());
  }
  stream.record_parse_error();

  // Before close: the row exists, is not drained, and converges on the
  // pushed frame count as the worker catches up.
  std::vector<StreamStatus> status = engine.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].key, "veh-a");
  EXPECT_FALSE(status[0].drained);

  stream.close();
  for (int i = 0; i < 2000 && !status[0].drained; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    status = engine.status();
    ASSERT_EQ(status.size(), 1u);
  }
  EXPECT_TRUE(status[0].closed);
  EXPECT_TRUE(status[0].drained);
  EXPECT_EQ(status[0].counters.frames, frames.size());
  EXPECT_EQ(status[0].counters.parse_errors, 1u);
  EXPECT_EQ(status[0].queue_depth, 0u);

  engine.finish();
}

TEST(FleetEngineTest, TelemetrySamplingDoesNotChangeVerdicts) {
  // The zero-perturbation contract behind --telemetry-sample: timing the
  // hot path must never alter a verdict, only add histogram observations.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(71, 6, {1, 4});

  const auto run_with =
      [&](std::shared_ptr<telemetry::MetricsRegistry> registry,
          std::size_t sample) {
        FleetConfig config;
        config.shards = 2;
        config.collect_verdicts = true;
        config.metrics = std::move(registry);
        config.telemetry_sample = sample;
        FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);
        FleetEngine::Stream stream = engine.open_stream("veh");
        engine.start();
        for (const can::TimedFrame& frame : frames) {
          stream.push(frame.timestamp, frame.frame.id());
        }
        stream.close();
        std::vector<StreamResult> results = engine.finish();
        return results.at(0).verdicts;
      };

  const auto registry = std::make_shared<telemetry::MetricsRegistry>();
  const std::vector<analysis::WindowVerdict> plain = run_with(nullptr, 0);
  const std::vector<analysis::WindowVerdict> sampled = run_with(registry, 3);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, sampled);  // WindowVerdict compares member-wise

  // The sampled run actually recorded hot-path latencies.
  const auto families = registry->snapshot();
  const auto scoring = std::find_if(
      families.begin(), families.end(), [](const auto& family) {
        return family.name == "canids_scoring_batch_ns";
      });
  ASSERT_NE(scoring, families.end());
  ASSERT_EQ(scoring->series.size(), 1u);
  EXPECT_GT(scoring->series[0].histogram.count(), 0u);
}

/// Observations recorded in one histogram family of `registry` (0 when
/// the family does not exist).
[[nodiscard]] std::uint64_t histogram_count(
    const telemetry::MetricsRegistry& registry, std::string_view name) {
  std::uint64_t count = 0;
  for (const auto& family : registry.snapshot()) {
    if (family.name != name) continue;
    for (const auto& series : family.series) {
      count += series.histogram.count();
    }
  }
  return count;
}

TEST(FleetEngineTest, TinyQueueAndDrainBatchOnThePushPathMatchSequential) {
  // The live push path at the smallest legal sizes: a 2-slot ring, one
  // frame per drain, and push_batch blocks larger than the ring, so every
  // publish waits on the worker.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(51, 4, {2});
  const std::unique_ptr<analysis::DetectorBackend> reference =
      world.bit_entropy(world.pipeline_config());
  const std::vector<analysis::WindowVerdict> expected =
      sequential_verdicts(*reference, {}, frames);

  FleetConfig config;
  config.shards = 2;
  config.queue_capacity = 2;
  config.drain_batch = 1;
  config.collect_verdicts = true;
  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);
  engine.start();
  FleetEngine::Stream stream = engine.open_stream("tiny");
  std::vector<FleetEngine::FrameItem> block;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    block.push_back({frames[i].timestamp, frames[i].frame.id()});
    if (block.size() == 5 || i + 1 == frames.size()) {
      stream.push_batch(block.data(), block.size());
      block.clear();
    }
  }
  stream.close();
  const std::vector<StreamResult> results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].counters.frames, frames.size());
  EXPECT_EQ(results[0].counters.queue_dropped, 0u);
  EXPECT_GT(results[0].counters.alerts, 0u);
  EXPECT_EQ(results[0].verdicts, expected);
}

TEST(FleetEngineTest, RunFleetTelemetrySamplingDoesNotChangeVerdicts) {
  // The batch-replay side of the --telemetry-sample contract, on both of
  // run_fleet's paths: every Nth block's fill and scoring are timed without
  // changing a verdict. One source on 2 shards queues to the workers by
  // default; with one producer thread the producer judges inline.
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(71, 6, {1, 4});

  for (const int producers : {0, 1}) {
    const bool queued = producers == 0;
    const auto run_with =
        [&](std::shared_ptr<telemetry::MetricsRegistry> registry,
            std::size_t sample) {
          FleetConfig config;
          config.shards = 2;
          config.drain_batch = 64;
          config.collect_verdicts = true;
          config.metrics = std::move(registry);
          config.telemetry_sample = sample;
          FleetEngine engine(world.bit_entropy(world.pipeline_config()),
                             config);
          std::vector<NamedSource> sources;
          sources.push_back(NamedSource{
              "veh", std::make_unique<trace::MemorySource>(frames),
              world.pool});
          FleetRunResult run =
              run_fleet(engine, std::move(sources), producers);
          EXPECT_TRUE(run.errors.empty());
          return std::move(run.streams.at(0).verdicts);
        };

    const auto registry = std::make_shared<telemetry::MetricsRegistry>();
    const std::vector<analysis::WindowVerdict> plain = run_with(nullptr, 0);
    const std::vector<analysis::WindowVerdict> sampled =
        run_with(registry, 3);
    ASSERT_FALSE(plain.empty());
    EXPECT_EQ(plain, sampled) << producers;
    EXPECT_GT(histogram_count(*registry, "canids_scoring_batch_ns"), 0u);
    EXPECT_GT(histogram_count(*registry, "canids_ingest_fill_ns"), 0u);
    EXPECT_GT(histogram_count(*registry, "canids_verdict_latency_ns"), 0u);
    // Only the queued path has a queue to measure.
    EXPECT_EQ(histogram_count(*registry, "canids_queue_occupancy_frames") > 0,
              queued)
        << producers;
  }
}

TEST(FleetEngineTest, RunFleetRequiresAFreshEngine) {
  // A stream opened before run_fleet would never be judged: judged inline,
  // no worker would drain it. run_fleet refuses such an engine.
  const FleetWorld world;
  FleetEngine engine(world.bit_entropy(world.pipeline_config()));
  FleetEngine::Stream early = engine.open_stream("early");
  std::vector<NamedSource> sources;
  sources.push_back(NamedSource{
      "veh", std::make_unique<trace::MemorySource>(world.make_trace(72, 2)),
      world.pool});
  EXPECT_THROW(run_fleet(engine, std::move(sources), 1),
               ContractViolation);
  early.close();
}

TEST(FleetEngineTest, RunFleetMatchesSequentialAtAnyProducerAndShardCount) {
  // Five sources: 1 and 2 producer threads judge inline, 16 queue to the
  // shard workers. Neither path, the thread count, the shard count nor the
  // capture format may change a verdict or a stream's shard label.
  const FleetWorld world;
  std::map<std::string, std::vector<can::TimedFrame>> traces;
  traces["car-00"] = world.make_trace(101, 5);
  traces["car-01"] = world.make_trace(102, 5, {1, 3});
  traces["car-02"] = world.make_trace(103, 4);
  traces["car-03"] = world.make_trace(104, 5, {2});
  traces["car-04"] = world.make_trace(105, 3);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("canids_fleet_replay_grid_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto path_of = [&](const std::string& key, trace::TraceFormat format) {
    return dir / (key + "." + std::string(trace::trace_format_name(format)));
  };
  for (const auto& [key, frames] : traces) {
    trace::Trace records;
    for (const can::TimedFrame& frame : frames) {
      records.push_back(trace::LogRecord{frame.timestamp, "can0", frame.frame});
    }
    for (const trace::TraceFormat format :
         {trace::TraceFormat::kBinary, trace::TraceFormat::kCandump}) {
      trace::save_trace_file(path_of(key, format), records, format);
    }
  }

  enum class Kind { kMemory, kBinary, kCandump };
  const auto open = [&](Kind kind, const std::string& key)
      -> std::unique_ptr<trace::TraceSource> {
    switch (kind) {
      case Kind::kMemory:
        return std::make_unique<trace::MemorySource>(traces.at(key));
      case Kind::kBinary:
        return trace::open_trace_source(
            path_of(key, trace::TraceFormat::kBinary));
      case Kind::kCandump:
        return trace::open_trace_source(
            path_of(key, trace::TraceFormat::kCandump));
    }
    return nullptr;
  };

  const std::unique_ptr<analysis::DetectorBackend> reference =
      world.bit_entropy(world.pipeline_config());
  for (const Kind kind : {Kind::kMemory, Kind::kBinary, Kind::kCandump}) {
    // The reference judges exactly what the source yields (candump text
    // keeps microseconds, so its timestamps are the text's, not make_trace's).
    std::map<std::string, std::vector<analysis::WindowVerdict>> expected;
    for (const auto& [key, frames] : traces) {
      expected[key] =
          sequential_verdicts(*reference, world.pool, open(kind, key)->drain());
      ASSERT_FALSE(expected[key].empty()) << key;
    }
    for (const int shards : {1, 3}) {
      for (const int producers : {1, 2, 16}) {
        FleetConfig config;
        config.shards = shards;
        config.drain_batch = 100;
        config.collect_verdicts = true;
        FleetEngine engine(world.bit_entropy(world.pipeline_config()),
                           config);
        std::vector<NamedSource> sources;
        for (const auto& [key, frames] : traces) {
          sources.push_back(NamedSource{key, open(kind, key), world.pool});
        }
        FleetRunResult run =
            run_fleet(engine, std::move(sources), producers);
        ASSERT_TRUE(run.errors.empty()) << run.errors[0].second;
        ASSERT_EQ(run.streams.size(), traces.size());
        for (const StreamResult& stream : run.streams) {
          const std::string where =
              "source kind " + std::to_string(static_cast<int>(kind)) + ", " +
              std::to_string(shards) + " shards, " +
              std::to_string(producers) + " producers, stream " + stream.key;
          EXPECT_EQ(stream.verdicts, expected.at(stream.key)) << where;
          EXPECT_EQ(stream.shard, engine.shard_of(stream.key)) << where;
        }
        for (const StreamStatus& row : engine.status()) {
          EXPECT_TRUE(row.closed && row.drained) << row.key;
          EXPECT_EQ(row.shard, engine.shard_of(row.key)) << row.key;
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(FleetEngineTest, PublishMetricsFoldsStatusIntoRegistry) {
  const FleetWorld world;
  const std::vector<can::TimedFrame> frames = world.make_trace(81, 4, {2});

  FleetConfig config;
  config.metrics = std::make_shared<telemetry::MetricsRegistry>();
  FleetEngine engine(world.bit_entropy(world.pipeline_config()), config);
  FleetEngine::Stream stream = engine.open_stream("veh");
  engine.start();
  for (const can::TimedFrame& frame : frames) {
    stream.push(frame.timestamp, frame.frame.id());
  }
  stream.record_parse_error();
  stream.close();
  engine.finish();

  engine.publish_metrics();
  const auto value = [&](std::string_view name) {
    return config.metrics->counter(name, "").value();
  };
  // One source of truth: the registry folds the same totals status()
  // reports.
  EXPECT_EQ(value("canids_frames_total"), frames.size());
  EXPECT_EQ(value("canids_parse_errors_total"), 1u);
  EXPECT_EQ(value("canids_streams_opened_total"), 1u);
  EXPECT_EQ(value("canids_streams_drained_total"), 1u);
  EXPECT_EQ(value("canids_alerts_total"), engine.totals().alerts);
  EXPECT_GT(engine.totals().alerts, 0u);
  EXPECT_EQ(config.metrics->gauge("canids_model_generation", "").value(), 0);
  EXPECT_EQ(config.metrics->gauge("canids_streams_active", "").value(), 0);

  // publish_metrics is a fold — re-publishing never regresses a counter.
  engine.publish_metrics();
  EXPECT_EQ(value("canids_frames_total"), frames.size());
}

}  // namespace
}  // namespace canids::engine
