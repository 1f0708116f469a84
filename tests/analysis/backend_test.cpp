#include "analysis/backends.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/registry.h"
#include "baselines/interval_ids.h"
#include "baselines/muter_entropy.h"
#include "ids/bit_counters.h"
#include "ids/golden_template.h"
#include "ids/window.h"
#include "model/store.h"
#include "util/rng.h"

namespace canids::analysis {
namespace {

using util::kSecond;

/// Shared fixture: a deterministic clean/attacked identifier world (same
/// construction as the fleet-engine test, minus the engine).
struct BackendWorld {
  std::vector<std::uint32_t> pool = {0x080, 0x120, 0x1C0, 0x260, 0x300,
                                     0x3A0, 0x440, 0x4E0, 0x580, 0x620};
  std::shared_ptr<const ids::GoldenTemplate> golden;

  BackendWorld() {
    ids::TemplateBuilder builder;
    util::Rng rng(5);
    for (int w = 0; w < 40; ++w) {
      ids::BitCounters counters;
      for (std::uint32_t id : pool) {
        const int count = 30 + static_cast<int>(rng.between(-1, 1));
        for (int i = 0; i < count; ++i) counters.add(id);
      }
      ids::WindowSnapshot snap;
      snap.frames = counters.total();
      snap.probabilities = counters.probabilities();
      snap.entropies = counters.entropies();
      builder.add_window(snap);
    }
    golden = std::make_shared<const ids::GoldenTemplate>(
        builder.build(ids::kPaperTrainingWindows));
  }

  [[nodiscard]] std::vector<can::TimedFrame> make_trace(
      std::uint64_t seed, int seconds,
      const std::vector<int>& attacked = {}) const {
    std::vector<can::TimedFrame> frames;
    for (int s = 0; s < seconds; ++s) {
      std::vector<std::uint32_t> stream;
      for (std::uint32_t id : pool) {
        for (int i = 0; i < 30; ++i) stream.push_back(id);
      }
      if (std::find(attacked.begin(), attacked.end(), s) != attacked.end()) {
        for (int i = 0; i < 120; ++i) stream.push_back(pool[4]);
      }
      util::Rng shuffle_rng(seed * 1000 + static_cast<std::uint64_t>(s));
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

  [[nodiscard]] DetectorOptions options(std::size_t calibration = 3) const {
    DetectorOptions out;
    out.golden = golden;
    out.id_pool = pool;
    out.calibration_windows = calibration;
    // The shuffled synthetic mix legitimately produces ~10 back-to-back
    // repeats per ID per window; the interval threshold must sit above
    // that noise while the 120-frame burst (~100 violations) still trips.
    out.interval.violations_to_alert = 40;
    return out;
  }
};

/// Run a backend over frames, collecting every verdict (incl. finish()).
[[nodiscard]] std::vector<WindowVerdict> run_backend(
    DetectorBackend& backend, const std::vector<can::TimedFrame>& frames) {
  std::vector<WindowVerdict> verdicts;
  for (const can::TimedFrame& frame : frames) {
    if (auto verdict = backend.on_frame(frame.timestamp, frame.frame.id())) {
      verdicts.push_back(std::move(*verdict));
    }
  }
  if (auto verdict = backend.finish()) verdicts.push_back(std::move(*verdict));
  return verdicts;
}

[[nodiscard]] std::size_t alert_count(
    const std::vector<WindowVerdict>& verdicts) {
  return static_cast<std::size_t>(
      std::count_if(verdicts.begin(), verdicts.end(),
                    [](const WindowVerdict& v) { return v.alert; }));
}

TEST(BitEntropyBackendTest, AlertsCarryBitsAndCandidates) {
  const BackendWorld world;
  const auto backend = make_detector("bit-entropy", world.options());

  const auto clean = run_backend(*backend, world.make_trace(1, 6));
  EXPECT_EQ(alert_count(clean), 0u);

  const auto attacked_backend = backend->clone_for_stream(world.pool);
  const auto attacked =
      run_backend(*attacked_backend, world.make_trace(2, 6, {2, 3}));
  ASSERT_GT(alert_count(attacked), 0u);
  for (const WindowVerdict& verdict : attacked) {
    if (!verdict.alert) continue;
    ASSERT_TRUE(verdict.detail.has_value());
    EXPECT_FALSE(verdict.detail->alerted_bits.empty());
    // The injected identifier (pool[4]) should rank among the candidates.
    EXPECT_FALSE(verdict.detail->ranked_candidates.empty());
    EXPECT_GT(verdict.metric, verdict.threshold);
  }
}

TEST(BitEntropyBackendTest, ExtendedFramesAreDroppedNotMiscounted) {
  const BackendWorld world;
  const auto backend = make_detector("bit-entropy", world.options());
  (void)backend->on_frame(0, can::CanId::standard(0x123));
  (void)backend->on_frame(1000, can::CanId::extended(0x1ABCDEF));
  EXPECT_EQ(backend->counters().frames, 2u);
  EXPECT_EQ(backend->counters().dropped_frames, 1u);
}

TEST(BitEntropyBackendTest, DroppedFramesStillAdvanceTheWindowClock) {
  const BackendWorld world;
  const auto backend = make_detector("bit-entropy", world.options());
  // Fill window [0, 1s) with standard frames...
  for (int i = 0; i < 30; ++i) {
    ASSERT_FALSE(backend
                     ->on_frame(static_cast<util::TimeNs>(i) * 30 *
                                    util::kMillisecond,
                                can::CanId::standard(world.pool[i % 10]))
                     .has_value());
  }
  // ...then cross the boundary with an extended (dropped) frame: the
  // window must close on it, exactly as it would for a detector that
  // consumes every frame.
  const auto verdict =
      backend->on_frame(1500 * util::kMillisecond,
                        can::CanId::extended(0x1ABCDEF));
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->start, 0);
  EXPECT_EQ(verdict->end, kSecond);
  EXPECT_EQ(verdict->frames, 30u);
  EXPECT_EQ(backend->counters().dropped_frames, 1u);
}

TEST(SymbolEntropyBackendTest, SelfCalibratesThenDetects) {
  const BackendWorld world;
  const auto backend = make_detector("symbol-entropy", world.options(3));
  EXPECT_FALSE(backend->describe().trained);

  // Seconds 0-2 calibrate; the injected bursts hit seconds 4 and 5.
  const auto verdicts =
      run_backend(*backend, world.make_trace(3, 6, {4, 5}));
  ASSERT_GE(verdicts.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(verdicts[i].evaluated)
        << "calibration window " << i << " must not be judged";
  }
  EXPECT_TRUE(backend->describe().trained);
  EXPECT_GT(alert_count(verdicts), 0u)
      << "the injected burst shifts the ID-distribution entropy";
  // Clean windows after calibration stay quiet.
  EXPECT_FALSE(verdicts[3].alert);
}

TEST(SymbolEntropyBackendTest, ClonesCalibrateIndependently) {
  const BackendWorld world;
  const auto backend = make_detector("symbol-entropy", world.options(2));
  (void)run_backend(*backend, world.make_trace(4, 4));
  EXPECT_TRUE(backend->describe().trained);
  // A clone of a self-calibrating backend starts untrained: per-stream
  // calibration, no cross-stream leakage.
  const auto clone = backend->clone_for_stream();
  EXPECT_FALSE(clone->describe().trained);
}

TEST(IntervalBackendTest, SelfCalibratesThenFlagsFastArrivals) {
  const BackendWorld world;
  const auto backend = make_detector("interval", world.options(3));
  EXPECT_FALSE(backend->describe().trained);

  const auto verdicts =
      run_backend(*backend, world.make_trace(5, 6, {4}));
  ASSERT_GE(verdicts.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(verdicts[i].evaluated);
  }
  EXPECT_TRUE(backend->describe().trained);
  // The 120-frame burst of pool[4] makes its arrivals ~4x faster than the
  // learned period — enough violations to alert in the attacked window.
  EXPECT_GT(alert_count(verdicts), 0u);
  EXPECT_FALSE(verdicts[3].alert) << "clean window after calibration";
}

TEST(IntervalBackendTest, VerdictMetricIsPeakViolations) {
  const BackendWorld world;
  const auto backend = make_detector("interval", world.options(3));
  const auto verdicts = run_backend(*backend, world.make_trace(6, 6, {4}));
  for (const WindowVerdict& verdict : verdicts) {
    if (!verdict.alert) continue;
    EXPECT_GE(verdict.metric, verdict.threshold);
    EXPECT_EQ(verdict.threshold, 40.0);
  }
}

TEST(EnsembleDetectorTest, CombinesMembersAndNamesVoters) {
  const BackendWorld world;
  const auto backend = make_detector("ensemble", world.options(3));
  EXPECT_EQ(backend->describe().name, "ensemble");
  EXPECT_EQ(backend->describe().state_growth, "sum of members (vote of 3)");

  const auto verdicts =
      run_backend(*backend, world.make_trace(7, 6, {4, 5}));
  ASSERT_GT(alert_count(verdicts), 0u);
  for (const WindowVerdict& verdict : verdicts) {
    if (!verdict.alert) continue;
    ASSERT_TRUE(verdict.detail.has_value());
    for (const std::string& voter : verdict.detail->voters) {
      EXPECT_TRUE(voter == "bit-entropy" || voter == "symbol-entropy" ||
                  voter == "interval")
          << "unexpected voter " << voter;
    }
    // The attacked windows come after calibration, so all three members
    // judge them and the majority quorum is 2; votes == voters.
    EXPECT_EQ(verdict.threshold, 2.0);
    EXPECT_EQ(verdict.metric,
              static_cast<double>(verdict.detail->voters.size()));
    EXPECT_GE(verdict.metric, verdict.threshold);
  }
}

TEST(EnsembleDetectorTest, WindowsStayAlignedAcrossMembers) {
  const BackendWorld world;
  const auto backend = make_detector("ensemble", world.options(2));
  const auto verdicts = run_backend(*backend, world.make_trace(9, 5));
  ASSERT_GE(verdicts.size(), 4u);
  for (std::size_t i = 1; i < verdicts.size(); ++i) {
    EXPECT_GE(verdicts[i].start, verdicts[i - 1].end)
        << "combined windows must be disjoint and ordered";
  }
}

TEST(EnsembleDetectorTest, StaysAlignedWhenBitMemberDropsFrames) {
  const BackendWorld world;
  // Sprinkle extended-ID frames through the trace — including ones that
  // land right after window boundaries, where a desynchronized bit member
  // would close its window one frame late and split the combination.
  std::vector<can::TimedFrame> frames = world.make_trace(11, 6, {4});
  std::vector<can::TimedFrame> spiked;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i % 97 == 0) {
      spiked.push_back(can::TimedFrame{
          frames[i].timestamp,
          can::Frame::data_frame(can::CanId::extended(0x1ABCDEF), {}),
          can::TimedFrame::kUnknownSource});
    }
    spiked.push_back(frames[i]);
  }

  const auto backend = make_detector("ensemble", world.options(2));
  const auto verdicts = run_backend(*backend, spiked);
  // One combined verdict per window — never two partial combinations.
  ASSERT_GE(verdicts.size(), 5u);
  for (std::size_t i = 1; i < verdicts.size(); ++i) {
    EXPECT_GE(verdicts[i].start, verdicts[i - 1].end)
        << "ensemble emitted overlapping windows: member windows "
           "desynchronized";
  }
  EXPECT_EQ(backend->counters().windows_closed, verdicts.size());
  // The bit member's drops are surfaced through the ensemble's counters.
  EXPECT_GT(backend->counters().dropped_frames, 0u);
}

TEST(PretrainedBackendTest, BundledModelsJudgeFromTheFirstWindow) {
  const BackendWorld world;
  // Train the two baseline models directly on clean traffic.
  const auto clean = world.make_trace(3, 4);
  baselines::SymbolEntropyAccumulator accumulator(kSecond);
  std::vector<baselines::SymbolWindow> symbol_windows;
  baselines::IntervalIds interval(world.options().interval);
  for (const can::TimedFrame& frame : clean) {
    const std::uint32_t id = frame.frame.id().raw();
    if (auto window = accumulator.add(frame.timestamp, id)) {
      symbol_windows.push_back(std::move(*window));
    }
    interval.train(frame.timestamp, id);
  }
  interval.finish_training();
  model::StoredModels trained;
  trained.golden = world.golden;
  trained.muter = std::make_shared<const baselines::MuterEntropyIds>(
      symbol_windows, world.options().muter);
  trained.interval =
      std::make_shared<const baselines::IntervalIds>(std::move(interval));

  // Backends built from the bundle round trip, with no calibration.
  const model::StoredModels unpacked = model::unpack(model::pack(trained));
  DetectorOptions options = world.options(2);
  options.golden = unpacked.golden;
  options.muter_model = unpacked.muter;
  options.interval_model = unpacked.interval;

  const auto probe = world.make_trace(11, 6, {2, 4});
  for (const char* name : {"bit-entropy", "symbol-entropy", "interval"}) {
    const auto backend = make_detector(name, options);
    EXPECT_TRUE(backend->describe().trained) << name;
    // Clones share the pretrained model and judge in lockstep.
    const auto sibling = backend->clone_for_stream();
    const auto actual = run_backend(*backend, probe);
    const auto expected = run_backend(*sibling, probe);
    ASSERT_EQ(actual.size(), expected.size()) << name;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i], expected[i]) << name << " window " << i;
    }
    // The model is live from the very first window: no verdict is a
    // calibration placeholder, and the injected bursts are caught.
    ASSERT_FALSE(actual.empty()) << name;
    for (const WindowVerdict& verdict : actual) {
      EXPECT_TRUE(verdict.evaluated) << name;
    }
    EXPECT_GT(alert_count(actual), 0u) << name;
  }
}

/// Run a backend over frames through on_frames in `chunk`-sized blocks.
[[nodiscard]] std::vector<WindowVerdict> run_backend_batched(
    DetectorBackend& backend, const std::vector<can::TimedFrame>& frames,
    std::size_t chunk) {
  std::vector<can::TimedId> items;
  items.reserve(frames.size());
  for (const can::TimedFrame& frame : frames) {
    items.push_back(can::TimedId{frame.timestamp, frame.frame.id()});
  }
  std::vector<WindowVerdict> verdicts;
  for (std::size_t i = 0; i < items.size(); i += chunk) {
    backend.on_frames(items.data() + i,
                      std::min(chunk, items.size() - i), verdicts);
  }
  if (auto verdict = backend.finish()) verdicts.push_back(std::move(*verdict));
  return verdicts;
}

TEST(BitEntropyBackendTest, OnFramesMatchesPerFrameFeeding) {
  const BackendWorld world;
  auto frames = world.make_trace(11, 6, {2, 4});
  // Splice width-mismatched frames throughout: the batch path must split
  // runs around them and route each through the dropped-frame path.
  for (std::size_t i = 100; i < frames.size(); i += 487) {
    frames[i].frame = can::Frame::data_frame(
        can::CanId::extended(0x1ABCDEF0 + static_cast<std::uint32_t>(i)), {});
  }

  const auto reference = make_detector("bit-entropy", world.options());
  const auto expected = run_backend(*reference, frames);
  ASSERT_GT(alert_count(expected), 0u) << "fixture must actually alert";

  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{37}, frames.size()}) {
    const auto backend = make_detector("bit-entropy", world.options());
    const auto verdicts = run_backend_batched(*backend, frames, chunk);
    ASSERT_EQ(verdicts.size(), expected.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(verdicts[i], expected[i]) << "chunk " << chunk << " " << i;
    }
    EXPECT_EQ(backend->counters().frames, reference->counters().frames);
    EXPECT_EQ(backend->counters().dropped_frames,
              reference->counters().dropped_frames);
    EXPECT_EQ(backend->counters().alerts, reference->counters().alerts);
  }
}

/// The world's template with pair means, trained the way `canids train`
/// trains (pair-tracking windows over clean traffic), so inference has
/// pair statistics to compare a window against.
[[nodiscard]] std::shared_ptr<const ids::GoldenTemplate> pair_template(
    const BackendWorld& world) {
  ids::TemplateBuilder builder;
  for (const ids::WindowSnapshot& snap :
       ids::windows_of(world.make_trace(20, 40), ids::WindowConfig{})) {
    builder.add_window(snap);
  }
  auto golden = std::make_shared<const ids::GoldenTemplate>(builder.build());
  EXPECT_TRUE(golden->has_pairs());
  return golden;
}

TEST(BitEntropyBackendTest, PoolLessBackendSkipsPairsInvisibly) {
  // Without an ID pool nothing reads the pair counters, so the backend
  // does not keep them. Its verdicts must equal, field by field, those of
  // a backend whose pipeline counts pairs (one with a pool).
  const BackendWorld world;
  DetectorOptions counted = world.options();
  counted.golden = pair_template(world);
  DetectorOptions skipped = counted;
  skipped.id_pool.clear();
  const auto with_pairs = make_detector("bit-entropy", counted);
  const auto without_pairs = make_detector("bit-entropy", skipped);
  ASSERT_EQ(with_pairs->describe().state_bytes,
            ids::PairCounters::state_bytes());
  ASSERT_EQ(without_pairs->describe().state_bytes,
            ids::BitCounters::state_bytes());

  const auto frames = world.make_trace(21, 8, {2, 3, 6});
  const auto expected = run_backend_batched(*with_pairs, frames, 256);
  const auto verdicts = run_backend_batched(*without_pairs, frames, 256);
  ASSERT_GT(alert_count(expected), 0u) << "fixture must actually alert";
  ASSERT_EQ(verdicts.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const WindowVerdict& want = expected[i];
    const WindowVerdict& got = verdicts[i];
    EXPECT_EQ(got.start, want.start) << i;
    EXPECT_EQ(got.end, want.end) << i;
    EXPECT_EQ(got.frames, want.frames) << i;
    EXPECT_EQ(got.evaluated, want.evaluated) << i;
    EXPECT_EQ(got.alert, want.alert) << i;
    EXPECT_EQ(got.metric, want.metric) << i;
    EXPECT_EQ(got.threshold, want.threshold) << i;
    ASSERT_EQ(got.detail.has_value(), want.detail.has_value()) << i;
    if (want.detail) {
      EXPECT_EQ(got.detail->alerted_bits, want.detail->alerted_bits) << i;
      EXPECT_TRUE(got.detail->ranked_candidates.empty()) << i;
    }
  }
}

TEST(BitEntropyBackendTest, PoolLessPrototypeClonesCountPairsForAPool) {
  // The fleet engine stamps streams out of one prototype; a stream opened
  // with its own pool runs inference and must count pairs even though the
  // prototype, built without a pool, does not.
  const BackendWorld world;
  DetectorOptions options = world.options();
  options.golden = pair_template(world);
  const auto pooled = make_detector("bit-entropy", options);
  options.id_pool.clear();
  const auto prototype = make_detector("bit-entropy", options);
  const auto clone = prototype->clone_for_stream(world.pool);
  EXPECT_FALSE(prototype->describe().supports_inference);
  EXPECT_TRUE(clone->describe().supports_inference);
  EXPECT_EQ(clone->describe().state_bytes, ids::PairCounters::state_bytes());

  const auto frames = world.make_trace(22, 8, {2, 5});
  const auto expected = run_backend_batched(*pooled, frames, 256);
  const auto verdicts = run_backend_batched(*clone, frames, 256);
  ASSERT_GT(alert_count(expected), 0u) << "fixture must actually alert";
  EXPECT_EQ(verdicts, expected);
  for (const WindowVerdict& verdict : verdicts) {
    if (verdict.alert) {
      EXPECT_FALSE(verdict.detail->ranked_candidates.empty());
    }
  }
}

TEST(DetectorBackendTest, DefaultOnFramesMatchesPerFrame) {
  // Backends without a batch override go through the base-class loop; the
  // ensemble (whose members include self-calibrating baselines) is the
  // most stateful of them.
  const BackendWorld world;
  const auto frames = world.make_trace(12, 6, {3, 4});
  for (const char* name : {"symbol-entropy", "interval", "ensemble"}) {
    const auto reference = make_detector(name, world.options(2));
    const auto expected = run_backend(*reference, frames);
    const auto backend = make_detector(name, world.options(2));
    const auto verdicts = run_backend_batched(*backend, frames, 61);
    ASSERT_EQ(verdicts.size(), expected.size()) << name;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(verdicts[i], expected[i]) << name << " window " << i;
    }
  }
}

TEST(DetectorCountersTest, WindowAccountingIsConsistent) {
  const BackendWorld world;
  for (const char* name :
       {"bit-entropy", "symbol-entropy", "interval", "ensemble"}) {
    const auto backend = make_detector(name, world.options(2));
    const auto frames = world.make_trace(10, 5, {3});
    const auto verdicts = run_backend(*backend, frames);
    const ids::PipelineCounters& counters = backend->counters();
    EXPECT_EQ(counters.frames, frames.size()) << name;
    EXPECT_EQ(counters.windows_closed, verdicts.size()) << name;
    EXPECT_EQ(counters.alerts, alert_count(verdicts)) << name;
    EXPECT_LE(counters.windows_evaluated, counters.windows_closed) << name;
  }
}

}  // namespace
}  // namespace canids::analysis
