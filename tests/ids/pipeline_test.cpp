#include "ids/pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/rng.h"

namespace canids::ids {
namespace {

using util::kMillisecond;
using util::kSecond;

/// Build a pipeline world: small pool, deterministic clean mix.
struct PipelineWorld {
  std::vector<std::uint32_t> pool = {0x080, 0x120, 0x1C0, 0x260, 0x300,
                                     0x3A0, 0x440, 0x4E0, 0x580, 0x620};
  GoldenTemplate golden;

  PipelineWorld() {
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
    golden = builder.build(kPaperTrainingWindows);
  }

  /// Feed one second of traffic into the pipeline; injected (id -> count)
  /// frames are interleaved. Returns the last emitted report, if any.
  std::optional<WindowReport> feed_second(
      IdsPipeline& pipeline, util::TimeNs start,
      const std::map<std::uint32_t, int>& injected) const {
    std::vector<std::uint32_t> stream;
    for (std::uint32_t id : pool) {
      for (int i = 0; i < 30; ++i) stream.push_back(id);
    }
    for (const auto& [id, count] : injected) {
      for (int i = 0; i < count; ++i) stream.push_back(id);
    }
    // Spread evenly across the second, IDs interleaved deterministically.
    std::optional<WindowReport> last;
    const util::TimeNs step = kSecond / static_cast<int64_t>(stream.size());
    util::Rng shuffle_rng(static_cast<std::uint64_t>(start) + 17);
    for (std::size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[shuffle_rng.below(i)]);
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const util::TimeNs t = start + static_cast<int64_t>(i) * step;
      if (auto report =
              pipeline.on_frame(t, can::CanId::standard(stream[i]))) {
        last = std::move(report);
      }
    }
    return last;
  }
};

PipelineConfig tight_config() {
  PipelineConfig config;
  config.window.duration = kSecond;
  return config;
}

TEST(IdsPipelineTest, CleanTrafficNeverAlerts) {
  const PipelineWorld world;
  IdsPipeline pipeline(world.golden, world.pool, tight_config());
  for (int s = 0; s < 10; ++s) {
    const auto report =
        world.feed_second(pipeline, static_cast<int64_t>(s) * kSecond, {});
    if (report) {
      EXPECT_FALSE(report->detection.alert) << "second " << s;
    }
  }
  EXPECT_EQ(pipeline.counters().alerts, 0u);
  EXPECT_GT(pipeline.counters().windows_closed, 5u);
}

TEST(IdsPipelineTest, InjectionAlertsAndInfers) {
  const PipelineWorld world;
  IdsPipeline pipeline(world.golden, world.pool, tight_config());
  // One clean second, then three attacked seconds.
  world.feed_second(pipeline, 0, {});
  const std::uint32_t injected = world.pool[4];
  std::uint64_t alerts = 0;
  double hit = 0.0;
  for (int s = 1; s <= 3; ++s) {
    const auto report = world.feed_second(
        pipeline, static_cast<int64_t>(s) * kSecond, {{injected, 120}});
    if (report && report->detection.alert) {
      ++alerts;
      ASSERT_TRUE(report->inference.has_value());
      hit = std::max(hit, inference_hit_fraction(
                              {injected}, report->inference->ranked_candidates));
    }
  }
  EXPECT_GE(alerts, 1u);
  EXPECT_DOUBLE_EQ(hit, 1.0);
}

TEST(IdsPipelineTest, InferenceDisabledWhenConfiguredOff) {
  const PipelineWorld world;
  // An empty id pool is the off switch.
  IdsPipeline pipeline(world.golden, {}, tight_config());
  EXPECT_FALSE(pipeline.inference_enabled());
  world.feed_second(pipeline, 0, {});
  const auto report =
      world.feed_second(pipeline, kSecond, {{world.pool[0], 200}});
  ASSERT_TRUE(report.has_value());
  if (report->detection.alert) {
    EXPECT_FALSE(report->inference.has_value());
  }
}

TEST(IdsPipelineTest, FinishFlushesFinalWindow) {
  const PipelineWorld world;
  IdsPipeline pipeline(world.golden, world.pool, tight_config());
  // Half a window of traffic only.
  for (int i = 0; i < 100; ++i) {
    pipeline.on_frame(static_cast<int64_t>(i) * kMillisecond,
                      can::CanId::standard(world.pool[0]));
  }
  const auto report = pipeline.finish();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->snapshot.frames, 100u);
  EXPECT_EQ(pipeline.counters().windows_closed, 1u);
}

TEST(IdsPipelineTest, CountersTrackFramesAndWindows) {
  const PipelineWorld world;
  IdsPipeline pipeline(world.golden, world.pool, tight_config());
  world.feed_second(pipeline, 0, {});
  world.feed_second(pipeline, kSecond, {});
  EXPECT_EQ(pipeline.counters().frames, 600u);
  EXPECT_GE(pipeline.counters().windows_closed, 1u);
  EXPECT_EQ(pipeline.counters().windows_evaluated,
            pipeline.counters().windows_closed);
}

}  // namespace
}  // namespace canids::ids
