#include "analysis/registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <string_view>
#include <vector>

#include "ids/bit_counters.h"
#include "ids/golden_template.h"
#include "util/rng.h"

namespace canids::analysis {
namespace {

[[nodiscard]] std::shared_ptr<const ids::GoldenTemplate> tiny_template() {
  ids::TemplateBuilder builder;
  util::Rng rng(7);
  const std::vector<std::uint32_t> pool = {0x080, 0x120, 0x1C0, 0x260,
                                           0x300, 0x3A0};
  for (int w = 0; w < 10; ++w) {
    ids::BitCounters counters;
    for (std::uint32_t id : pool) {
      const int count = 25 + static_cast<int>(rng.between(-1, 1));
      for (int i = 0; i < count; ++i) counters.add(id);
    }
    ids::WindowSnapshot snap;
    snap.frames = counters.total();
    snap.probabilities = counters.probabilities();
    snap.entropies = counters.entropies();
    builder.add_window(snap);
  }
  return std::make_shared<const ids::GoldenTemplate>(builder.build());
}

[[nodiscard]] DetectorOptions options_with_template() {
  DetectorOptions options;
  options.golden = tiny_template();
  options.calibration_windows = 2;
  return options;
}

TEST(DetectorRegistryTest, TableListsTheFourBuiltinsInOrder) {
  std::vector<std::string_view> names;
  for (const DetectorEntry& entry : detector_table()) {
    names.push_back(entry.name);
    EXPECT_TRUE(is_detector(entry.name));
  }
  const std::vector<std::string_view> expected = {
      "bit-entropy", "symbol-entropy", "interval", "ensemble"};
  EXPECT_EQ(names, expected);
  EXPECT_FALSE(is_detector("no-such-detector"));
}

TEST(DetectorRegistryTest, DescribeReadsItsTableRow) {
  // With an ID pool, bit-entropy runs inference and so counts what its
  // table row lists: 11 bit and 55 pair counters.
  DetectorOptions options = options_with_template();
  options.id_pool = {0x080, 0x120, 0x1C0};
  for (const DetectorEntry& entry : detector_table()) {
    const DetectorInfo info = make_detector(entry.name, options)->describe();
    EXPECT_EQ(info.name, entry.name);
    EXPECT_EQ(info.paper, entry.paper);
    if (entry.name == "ensemble") {
      EXPECT_EQ(info.state_growth, "sum of members (vote of 3)");
    } else {
      EXPECT_EQ(info.state_growth, entry.state_growth) << entry.name;
    }
  }
}

TEST(DetectorRegistryTest, PoolLessBitEntropyDescribesBitCountersOnly) {
  // No pool, no inference, no pair counters: describe() reports what the
  // instance keeps, not its table row.
  const DetectorInfo info =
      make_detector("bit-entropy", options_with_template())->describe();
  EXPECT_EQ(info.state_growth, "O(1): 11 bit counters");
  EXPECT_EQ(info.state_bytes, ids::BitCounters::state_bytes());
  EXPECT_FALSE(info.supports_inference);
}

TEST(DetectorRegistryTest, RoundTripEveryBuiltin) {
  const DetectorOptions options = options_with_template();
  for (const DetectorEntry& entry : detector_table()) {
    const std::string_view name = entry.name;
    const std::unique_ptr<DetectorBackend> backend =
        make_detector(name, options);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->describe().name, name);
    // A clone is again the same kind of backend with zeroed counters.
    const std::unique_ptr<DetectorBackend> clone =
        backend->clone_for_stream();
    EXPECT_EQ(clone->describe().name, name);
    EXPECT_EQ(clone->counters().frames, 0u);
  }
}

TEST(DetectorRegistryTest, UnknownNameThrowsWithListing) {
  try {
    (void)make_detector("no-such-detector", options_with_template());
    FAIL() << "expected UnknownDetectorError";
  } catch (const UnknownDetectorError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no-such-detector"), std::string::npos);
    EXPECT_NE(message.find("bit-entropy"), std::string::npos)
        << "message should list the registered names: " << message;
  }
}

TEST(DetectorRegistryTest, BitEntropyRequiresGoldenTemplate) {
  DetectorOptions options;  // no golden template
  EXPECT_THROW((void)make_detector("bit-entropy", options),
               std::invalid_argument);
  EXPECT_THROW((void)make_detector("ensemble", options),
               std::invalid_argument)
      << "the ensemble contains bit-entropy";
}

}  // namespace
}  // namespace canids::analysis
