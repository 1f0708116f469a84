#include "ids/inference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/scenario.h"
#include "can/bus.h"
#include "ids/bit_counters.h"
#include "ids/pipeline.h"
#include "metrics/experiment.h"
#include "util/rng.h"

namespace canids::ids {
namespace {

/// Test fixture world: a legal ID pool with a stable traffic mix, a golden
/// template built from that mix, and a helper to forge attacked windows.
/// `with_pairs` selects between the paper-faithful marginals-only mode and
/// the pairwise-counter inference extension.
class InferenceWorld {
 public:
  explicit InferenceWorld(std::uint64_t seed = 99, int pool_size = 60,
                          bool with_pairs = false)
      : InferenceWorld(random_pool(seed, pool_size), seed, with_pairs) {}

  /// A world over the given pool of distinct IDs.
  InferenceWorld(std::vector<std::uint32_t> pool, std::uint64_t seed,
                 bool with_pairs)
      : with_pairs_(with_pairs), pool_(std::move(pool)) {
    std::sort(pool_.begin(), pool_.end());
    // Stable per-ID frame counts per window (priority-weighted).
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      weights_[pool_[i]] = 4 + (pool_.size() - i) / 6;
    }

    TemplateBuilder builder;
    for (int w = 0; w < 40; ++w) {
      builder.add_window(make_window({}, /*noise_seed=*/seed + 100 + w));
    }
    golden_ = builder.build(kPaperTrainingWindows);
  }

  /// A window of the normal mix plus `injected` extra (id -> count) frames.
  WindowSnapshot make_window(const std::map<std::uint32_t, int>& injected,
                             std::uint64_t noise_seed = 1) const {
    util::Rng rng(noise_seed);
    PairCounters counters;
    for (const auto& [id, weight] : weights_) {
      // +-1 frame of sampling noise per ID models real window jitter.
      const int jitter = static_cast<int>(rng.between(-1, 1));
      const int count = std::max(1, weight + jitter);
      for (int i = 0; i < count; ++i) counters.add(id);
    }
    for (const auto& [id, count] : injected) {
      for (int i = 0; i < count; ++i) counters.add(id);
    }
    WindowSnapshot snap;
    snap.frames = counters.total();
    snap.start = 0;
    snap.end = util::kSecond;
    snap.probabilities = counters.marginals().probabilities();
    snap.entropies = counters.marginals().entropies();
    if (with_pairs_) {
      snap.pair_probabilities = counters.pair_probabilities();
    }
    return snap;
  }

  [[nodiscard]] const std::vector<std::uint32_t>& pool() const {
    return pool_;
  }
  [[nodiscard]] const GoldenTemplate& golden() const { return golden_; }

 private:
  static std::vector<std::uint32_t> random_pool(std::uint64_t seed,
                                                int pool_size) {
    util::Rng rng(seed);
    std::vector<std::uint32_t> pool;
    while (static_cast<int>(pool.size()) < pool_size) {
      const auto id = static_cast<std::uint32_t>(rng.below(0x800));
      if (std::find(pool.begin(), pool.end(), id) == pool.end()) {
        pool.push_back(id);
      }
    }
    return pool;
  }

  bool with_pairs_;
  std::vector<std::uint32_t> pool_;
  std::map<std::uint32_t, int> weights_;
  GoldenTemplate golden_;
};

TEST(InferenceEngineTest, RejectsEmptyPool) {
  const InferenceWorld world;
  EXPECT_THROW(InferenceEngine(world.golden(), {}), canids::ContractViolation);
}

TEST(InferenceEngineTest, SingleInjectedIdRankedFirstish) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  // Inject a mid-pool ID heavily (roughly 25 % of window traffic).
  const std::uint32_t injected = world.pool()[world.pool().size() / 2];
  const WindowSnapshot attacked = world.make_window({{injected, 150}});
  const InferenceResult result = engine.infer(attacked);

  EXPECT_FALSE(result.constraints.empty());
  EXPECT_EQ(inference_hit_fraction({injected}, result.ranked_candidates), 1.0);
  EXPECT_GT(result.estimated_injection_fraction, 0.05);
}

TEST(InferenceEngineTest, RankedListBoundedByRank) {
  const InferenceWorld world;
  InferenceConfig config;
  config.rank = 10;
  InferenceEngine engine(world.golden(), world.pool(), config);
  const WindowSnapshot attacked =
      world.make_window({{world.pool().front(), 120}});
  const InferenceResult result = engine.infer(attacked);
  EXPECT_LE(result.ranked_candidates.size(), 10u);
  // Candidates are unique.
  auto sorted = result.ranked_candidates;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(InferenceEngineTest, ConstraintDirectionMatchesInjectedBits) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t injected = world.pool()[3];
  const WindowSnapshot attacked = world.make_window({{injected, 200}});
  const InferenceResult result = engine.infer(attacked);
  ASSERT_FALSE(result.constraints.empty());
  for (const BitConstraint& c : result.constraints) {
    const bool bit = ((injected >> (10 - c.bit)) & 1u) != 0;
    EXPECT_EQ(c.injected_bit, bit)
        << "constraint direction wrong at bit " << c.bit;
  }
}

TEST(InferenceEngineTest, TwoInjectedIdsBothRecovered) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t a = world.pool()[5];
  const std::uint32_t b = world.pool()[40];
  const WindowSnapshot attacked = world.make_window({{a, 120}, {b, 120}});
  const InferenceResult result = engine.infer(attacked);
  const double hit = inference_hit_fraction({a, b}, result.ranked_candidates);
  EXPECT_GE(hit, 0.5);  // at least one; typically both
  EXPECT_GE(result.estimated_num_ids, 1);
}

TEST(InferenceEngineTest, CleanWindowYieldsNoConstraints) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const WindowSnapshot clean = world.make_window({}, /*noise_seed=*/777);
  const InferenceResult result = engine.infer(clean);
  EXPECT_TRUE(result.constraints.empty());
  EXPECT_LT(result.estimated_injection_fraction, 0.1);
}

TEST(InferenceEngineTest, HigherInjectionEasierThanLower) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t injected = world.pool()[20];
  const InferenceResult heavy =
      engine.infer(world.make_window({{injected, 250}}));
  const InferenceResult light =
      engine.infer(world.make_window({{injected, 10}}));
  EXPECT_GE(heavy.constraints.size(), light.constraints.size());
  EXPECT_GE(heavy.estimated_injection_fraction,
            light.estimated_injection_fraction);
}

TEST(InferenceEngineTest, EstimatedLambdaTracksInjectedFraction) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t injected = world.pool()[0];
  const WindowSnapshot attacked = world.make_window({{injected, 200}});
  const InferenceResult result = engine.infer(attacked);
  const double true_lambda =
      200.0 / static_cast<double>(attacked.frames);
  EXPECT_NEAR(result.estimated_injection_fraction, true_lambda, 0.12);
}

TEST(InferenceHitFractionTest, Scoring) {
  EXPECT_DOUBLE_EQ(inference_hit_fraction({1, 2}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(inference_hit_fraction({1, 2}, {2, 9}), 0.5);
  EXPECT_DOUBLE_EQ(inference_hit_fraction({1, 2}, {7, 9}), 0.0);
  EXPECT_DOUBLE_EQ(inference_hit_fraction({}, {1}), 0.0);
}

// Parameterised sweep: single-ID inference succeeds across pool positions
// (priority levels) at a strong injection rate.
class InferencePositionSweep : public ::testing::TestWithParam<int> {};

TEST_P(InferencePositionSweep, RecoversInjectedIdAtPosition) {
  const InferenceWorld world;
  InferenceEngine engine(world.golden(), world.pool());
  const auto index = static_cast<std::size_t>(GetParam());
  ASSERT_LT(index, world.pool().size());
  const std::uint32_t injected = world.pool()[index];
  const WindowSnapshot attacked = world.make_window({{injected, 180}});
  const InferenceResult result = engine.infer(attacked);
  EXPECT_EQ(inference_hit_fraction({injected}, result.ranked_candidates), 1.0)
      << "pool position " << index;
}

INSTANTIATE_TEST_SUITE_P(PoolPositions, InferencePositionSweep,
                         ::testing::Values(0, 7, 15, 23, 31, 39, 47, 55, 59));

// --- Pairwise-counter inference extension ----------------------------------

TEST(PairInferenceTest, TemplateAndWindowPairsAreUsed) {
  const InferenceWorld world(99, 60, /*with_pairs=*/true);
  ASSERT_TRUE(world.golden().has_pairs());
  InferenceEngine engine(world.golden(), world.pool());
  const std::uint32_t injected = world.pool()[30];
  const WindowSnapshot attacked = world.make_window({{injected, 150}});
  ASSERT_TRUE(attacked.has_pairs());
  const InferenceResult result = engine.infer(attacked);
  EXPECT_EQ(inference_hit_fraction({injected}, result.ranked_candidates), 1.0);
}

TEST(PairInferenceTest, FourInjectedIdsMostlyRecovered) {
  const InferenceWorld world(123, 80, /*with_pairs=*/true);
  InferenceEngine engine(world.golden(), world.pool());
  double hit_sum = 0.0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    util::Rng rng(500 + t);
    std::map<std::uint32_t, int> injected;
    while (injected.size() < 4) {
      injected[world.pool()[rng.below(world.pool().size())]] = 80;
    }
    std::vector<std::uint32_t> true_ids;
    for (const auto& [id, count] : injected) true_ids.push_back(id);
    const InferenceResult result =
        engine.infer(world.make_window(injected, 900 + t));
    hit_sum += inference_hit_fraction(true_ids, result.ranked_candidates);
  }
  // Table I's hardest row; with pair features the extension recovers most
  // members (paper-mode marginals alone sit far lower, see the bench).
  EXPECT_GT(hit_sum / kTrials, 0.7);
}

TEST(PairInferenceTest, PairsBeatMarginalsOnMultiId) {
  const InferenceWorld pairs_world(77, 80, /*with_pairs=*/true);
  const InferenceWorld plain_world(77, 80, /*with_pairs=*/false);
  InferenceEngine pair_engine(pairs_world.golden(), pairs_world.pool());
  InferenceEngine plain_engine(plain_world.golden(), plain_world.pool());

  double pair_hits = 0.0;
  double plain_hits = 0.0;
  constexpr int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    util::Rng rng(3000 + t);
    std::map<std::uint32_t, int> injected;
    while (injected.size() < 3) {
      injected[pairs_world.pool()[rng.below(pairs_world.pool().size())]] = 70;
    }
    std::vector<std::uint32_t> true_ids;
    for (const auto& [id, count] : injected) true_ids.push_back(id);
    pair_hits += inference_hit_fraction(
        true_ids,
        pair_engine.infer(pairs_world.make_window(injected, 4000 + t))
            .ranked_candidates);
    plain_hits += inference_hit_fraction(
        true_ids,
        plain_engine.infer(plain_world.make_window(injected, 4000 + t))
            .ranked_candidates);
  }
  EXPECT_GE(pair_hits, plain_hits);
  EXPECT_GT(pair_hits / kTrials, 0.75);
}

TEST(PairInferenceTest, MissingWindowPairsFallsBackToMarginals) {
  // Template with pairs, window without: the engine must degrade
  // gracefully to the marginal path.
  const InferenceWorld pairs_world(42, 60, /*with_pairs=*/true);
  const InferenceWorld plain_world(42, 60, /*with_pairs=*/false);
  InferenceEngine engine(pairs_world.golden(), pairs_world.pool());
  const std::uint32_t injected = pairs_world.pool()[10];
  const WindowSnapshot no_pairs =
      plain_world.make_window({{injected, 150}}, 5);
  ASSERT_FALSE(no_pairs.has_pairs());
  const InferenceResult result = engine.infer(no_pairs);
  EXPECT_EQ(inference_hit_fraction({injected}, result.ranked_candidates), 1.0);
}

TEST(PairInferenceTest, EstimatedSetSizeTracksTruth) {
  const InferenceWorld world(55, 60, /*with_pairs=*/true);
  InferenceEngine engine(world.golden(), world.pool());
  const InferenceResult one =
      engine.infer(world.make_window({{world.pool()[20], 160}}, 8));
  EXPECT_LE(one.estimated_num_ids, 2);
  const InferenceResult three = engine.infer(world.make_window(
      {{world.pool()[5], 100}, {world.pool()[25], 100}, {world.pool()[45], 100}},
      9));
  EXPECT_GE(three.estimated_num_ids, 2);
}

// ---- Exact regression -------------------------------------------------------
// The fit reuses dot products across hypotheses, yet every double of the
// result, the fitted residual and lambda included, must equal what the
// direct per-hypothesis fit produced. The expected results were recorded
// from that direct fit as hexfloats, so any change in summation order fails
// here.

/// `r` as the C++ initializer used below (doubles as hexfloats), so a
/// mismatch prints its own replacement literal.
std::string to_literal(const InferenceResult& r) {
  std::ostringstream out;
  out << std::hexfloat << "InferenceResult{{";
  for (std::size_t i = 0; i < r.constraints.size(); ++i) {
    const BitConstraint& c = r.constraints[i];
    out << (i > 0 ? ", " : "") << "{" << c.bit << ", "
        << (c.injected_bit ? "true" : "false") << ", " << c.shift << "}";
  }
  auto ids = [&out](const std::vector<std::uint32_t>& v) {
    out << "{";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out << (i > 0 ? ", " : "") << std::dec << v[i];
    }
    out << "}" << std::hexfloat;
  };
  out << "}, ";
  ids(r.ranked_candidates);
  out << ", ";
  ids(r.best_set);
  out << ", " << r.estimated_injection_fraction << ", " << std::dec
      << r.estimated_num_ids << ", " << std::hexfloat << r.fit_residual
      << "}";
  return out.str();
}

struct RegressionCase {
  std::uint64_t world_seed;
  bool template_pairs;
  bool window_pairs;
  std::map<std::size_t, int> injected;  // pool position -> frames
  std::uint64_t noise_seed;
};

TEST(InferenceRegressionTest, ResultsEqualRecordedValuesExactly) {
  // A 150-ID pool, so the 96-entry search pool is a real reduction.
  constexpr int kPool = 150;
  const RegressionCase cases[] = {
      {7, true, true, {{12, 90}, {70, 90}}, 11},
      {7, true, true, {{3, 70}, {40, 70}, {120, 70}}, 12},
      {7, true, true, {{5, 60}, {33, 60}, {90, 60}, {140, 60}}, 13},
      {8, false, false, {{20, 80}, {100, 80}, {130, 80}}, 14},
      {7, true, false, {{50, 100}, {60, 100}}, 15},
      {8, false, false, {{75, 150}}, 16},
  };
  const InferenceResult expected[] = {
      InferenceResult{
          {{5, true, 0x1.efa512446dap-6},
           {8, false, -0x1.d5779d4b880dp-6}},
          {875, 176, 986, 975, 1739, 923,
           1003, 1547, 906, 995},
          {176, 875},
          0x1.18a17506f976dp-4, 2, 0x1.237247877f032p-13},
      InferenceResult{
          {{1, false, -0x1.06f835d82ed98p-5},
           {5, true, 0x1.3a8002bc4101p-5}},
          {53, 496, 1514, 1895, 1959, 1636,
           1998, 1910, 2037, 1386},
          {53, 496, 1514},
          0x1.47cac6f7ea3fp-4, 3, 0x1.ae8b16ec5d0c3p-13},
      InferenceResult{
          {{5, false, -0x1.ca4a9b08062fp-6},
           {8, true, 0x1.2963c9fc787d8p-5},
           {9, true, 0x1.6ce5b07c1558p-5},
           {10, true, 0x1.8613d2653cd1p-6}},
          {1111, 1799, 411, 110, 267, 263,
           15, 303, 407, 923},
          {411, 1111, 1799},
          0x1.ec81e880e5106p-5, 3, 0x1.1fde41acde23p-8},
      InferenceResult{
          {{5, false, -0x1.375d797030fa8p-5},
           {10, true, 0x1.0237d484b2c9p-5}},
          {267, 1311, 1745, 1779, 1943, 1791,
           2014, 2010, 1855, 1994},
          {267, 1311, 1745},
          0x1.68b329018ff0cp-4, 3, 0x1.652f1b20100e7p-15},
      InferenceResult{
          {{1, true, 0x1.8bff01da4103p-5},
           {2, false, -0x1.126a31b58887p-5},
           {4, true, 0x1.5ab2d4d8166f8p-5},
           {6, true, 0x1.5899e255349f8p-5},
           {8, false, -0x1.10a0c2ae391ep-5}},
          {731, 624, 890, 986, 888, 210,
           857, 792, 923, 889},
          {624, 731},
          0x1.4a8368024c6d7p-4, 2, 0x1.900ce2b9d129ap-16},
      InferenceResult{
          {{1, true, 0x1.2f26a4b408f98p-5},
           {2, true, 0x1.c98278162c88p-6},
           {3, true, 0x1.03985f42f9258p-5},
           {4, true, 0x1.bf625858d1c5p-6},
           {5, false, -0x1.a8ffdc127f5cp-6},
           {7, true, 0x1.d54a16058dc6p-6},
           {8, true, 0x1.bd15e47f42bp-6},
           {10, false, -0x1.3a359a09238cp-5}},
          {988, 1048, 1306, 915, 16, 1802,
           697, 649, 825, 944},
          {988},
          0x1.d8cdce8d0356p-5, 1, 0x1.55b081181215p-16},
  };
  ASSERT_EQ(std::size(expected), std::size(cases));
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const RegressionCase& c = cases[i];
    const InferenceWorld model_world(c.world_seed, kPool, c.template_pairs);
    const InferenceWorld window_world(c.world_seed, kPool, c.window_pairs);
    std::map<std::uint32_t, int> injected;
    for (const auto& [position, frames] : c.injected) {
      injected[window_world.pool()[position]] = frames;
    }
    const InferenceEngine engine(model_world.golden(), model_world.pool());
    const InferenceResult result =
        engine.infer(window_world.make_window(injected, c.noise_seed));
    EXPECT_TRUE(result == expected[i])
        << "case " << i << " got:\n" << to_literal(result);
  }
}

// ---- Pinned digest over simulated traffic -----------------------------------
// Every field of every result over alerted windows of real bus traffic,
// against the vehicle's full ID pool with pair statistics on. The search
// may change how it finds its beam (streamed, bounded, pruned), but not
// one bit of what it returns.

/// FNV-1a over the little-endian bytes of `value`'s low `bytes` bytes.
void fnv1a(std::uint64_t& hash, std::uint64_t value, int bytes = 8) {
  for (int i = 0; i < bytes; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFu;
    hash *= 0x100000001B3ULL;
  }
}

void fnv1a(std::uint64_t& hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  fnv1a(hash, bits);
}

void fnv1a(std::uint64_t& hash, const std::vector<std::uint32_t>& ids) {
  fnv1a(hash, static_cast<std::uint64_t>(ids.size()));
  for (std::uint32_t id : ids) fnv1a(hash, id, 4);
}

void fnv1a(std::uint64_t& hash, const InferenceResult& r) {
  fnv1a(hash, static_cast<std::uint64_t>(r.constraints.size()));
  for (const BitConstraint& c : r.constraints) {
    fnv1a(hash, static_cast<std::uint64_t>(c.bit), 1);
    fnv1a(hash, c.injected_bit ? 1u : 0u, 1);
    fnv1a(hash, c.shift);
  }
  fnv1a(hash, r.ranked_candidates);
  fnv1a(hash, r.best_set);
  fnv1a(hash, r.estimated_injection_fraction);
  fnv1a(hash, static_cast<std::uint64_t>(r.estimated_num_ids), 4);
  fnv1a(hash, r.fit_residual);
}

/// Alerted windows lying inside the attack of a seeded 7 s drive with
/// `kind` injected at `hz` from t = 2 s, counted with pair statistics.
std::vector<WindowSnapshot> alerted_windows(
    metrics::ExperimentRunner& runner, attacks::ScenarioKind kind, double hz,
    std::uint64_t seed) {
  const trace::SyntheticVehicle& vehicle = runner.vehicle();
  can::BusSimulator bus(vehicle.config().bus);
  vehicle.attach_to(bus, trace::DrivingBehavior::kCity, seed);
  attacks::AttackConfig config;
  config.frequency_hz = hz;
  config.start = 2 * util::kSecond;
  config.stop = 7 * util::kSecond;
  auto attack =
      attacks::make_scenario(kind, vehicle, config, util::Rng(seed + 1));
  attacks::attach_attack(bus, attack);

  IdsPipeline pipeline(runner.train_shared(), {}, PipelineConfig{});
  std::vector<WindowSnapshot> alerted;
  bus.add_listener([&](const can::TimedFrame& frame) {
    const auto report = pipeline.on_frame(frame.timestamp, frame.frame.id());
    if (report && report->detection.alert &&
        report->snapshot.start >= config.start &&
        report->snapshot.end <= config.stop) {
      alerted.push_back(report->snapshot);
    }
  });
  bus.run_until(config.stop);
  return alerted;
}

TEST(InferenceRegressionTest, SimulatedAlertsMatchPinnedDigest) {
  metrics::ExperimentRunner runner;
  const InferenceEngine engine(runner.train_shared(),
                               runner.vehicle().id_pool());
  ASSERT_EQ(engine.id_pool().size(), 223u);
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  std::size_t windows = 0;
  for (attacks::ScenarioKind kind :
       {attacks::ScenarioKind::kSingle, attacks::ScenarioKind::kMulti3,
        attacks::ScenarioKind::kMulti4, attacks::ScenarioKind::kFlood}) {
    for (double hz : {100.0, 50.0, 20.0}) {
      for (std::uint64_t seed : {31u, 32u, 33u}) {
        for (const WindowSnapshot& window :
             alerted_windows(runner, kind, hz, seed)) {
          ASSERT_TRUE(window.has_pairs());
          fnv1a(hash, engine.infer(window));
          ++windows;
        }
      }
    }
  }
  EXPECT_GE(windows, 90u);
  EXPECT_EQ(hash, 0x72472727307D06D7ULL) << windows << " windows: 0x" << std::hex
                          << std::uppercase << hash << "ULL";
}

// Where the beam search's least-squares bound is weakest: 64 adjacent IDs,
// so many candidates differ in one bit and their patterns are nearly
// collinear. Covers marginals-only and pair-carrying templates and windows,
// 1-4 injected IDs at two strengths, a window with no shift at all and an
// injection heavy enough that the lambda clamp fires.
TEST(InferenceRegressionTest, NearCollinearPoolMatchesPinnedDigest) {
  std::vector<std::uint32_t> adjacent;
  for (std::uint32_t id = 0x300; id < 0x340; ++id) adjacent.push_back(id);
  const std::vector<std::vector<std::size_t>> sets = {
      {17}, {20, 21}, {8, 9, 40}, {3, 4, 35, 63}};
  const std::pair<bool, bool> modes[] = {
      {false, false}, {true, true}, {true, false}};
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  bool clamped = false;
  for (const auto& [template_pairs, window_pairs] : modes) {
    const InferenceWorld model_world(adjacent, 5, template_pairs);
    const InferenceWorld window_world(adjacent, 5, window_pairs);
    const InferenceEngine engine(model_world.golden(), model_world.pool());
    for (const std::vector<std::size_t>& set : sets) {
      for (int frames : {25, 90}) {
        std::map<std::uint32_t, int> injected;
        for (std::size_t position : set) injected[adjacent[position]] = frames;
        for (std::uint64_t noise_seed : {41u, 42u, 43u}) {
          fnv1a(hash,
                engine.infer(window_world.make_window(injected, noise_seed)));
        }
      }
    }
    const InferenceResult heavy =
        engine.infer(window_world.make_window({{adjacent[50], 4000}}, 44));
    clamped = clamped || heavy.estimated_injection_fraction == 0.75;
    fnv1a(hash, heavy);

    WindowSnapshot still;
    still.frames = 600;
    still.end = util::kSecond;
    still.probabilities = model_world.golden().mean_probability;
    if (window_pairs) {
      still.pair_probabilities = model_world.golden().mean_pair_probability;
    }
    fnv1a(hash, engine.infer(still));
  }
  EXPECT_TRUE(clamped) << "no window reached the lambda clamp";
  EXPECT_EQ(hash, 0x32F26A76E5738AC4ULL)
      << "0x" << std::hex << std::uppercase << hash << "ULL";
}

}  // namespace
}  // namespace canids::ids
