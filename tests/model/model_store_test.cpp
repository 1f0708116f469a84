// The model-artifact layer: ModelBundle framing (magic/version/sections,
// strict rejection of truncated or tampered streams), byte-exact
// persistence round-trips for every model kind, and the typed pack/unpack
// store over them.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "baselines/interval_ids.h"
#include "baselines/muter_entropy.h"
#include "ids/golden_template.h"
#include "model/bundle.h"
#include "model/store.h"

namespace canids::model {
namespace {

std::string bundle_bytes(const ModelBundle& bundle) {
  std::ostringstream out;
  bundle.save(out);
  return out.str();
}

ModelBundle load_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return ModelBundle::load(in);
}

// ---- bundle framing --------------------------------------------------------

TEST(ModelBundleTest, SaveLoadRoundTripsSectionsInOrder) {
  ModelBundle bundle;
  bundle.add("alpha", "payload-one");
  bundle.add("beta", std::string("\x00\x01\xFF\n binary ok", 14));
  bundle.add("gamma", "");  // empty payloads are legal

  const ModelBundle restored = load_bytes(bundle_bytes(bundle));
  EXPECT_EQ(restored, bundle);
  ASSERT_EQ(restored.sections().size(), 3u);
  EXPECT_EQ(restored.sections()[0].name, "alpha");
  EXPECT_EQ(restored.sections()[1].name, "beta");
  EXPECT_EQ(restored.sections()[2].name, "gamma");
  EXPECT_TRUE(restored.contains("beta"));
  EXPECT_FALSE(restored.contains("delta"));
  ASSERT_NE(restored.find("alpha"), nullptr);
  EXPECT_EQ(*restored.find("alpha"), "payload-one");
}

TEST(ModelBundleTest, RejectsDuplicateAndEmptySectionNames) {
  ModelBundle bundle;
  bundle.add("a", "x");
  EXPECT_THROW(bundle.add("a", "y"), std::invalid_argument);
  EXPECT_THROW(bundle.add("", "y"), std::invalid_argument);
}

TEST(ModelBundleTest, RejectsBadMagic) {
  std::string bytes = bundle_bytes([] {
    ModelBundle b;
    b.add("a", "x");
    return b;
  }());
  bytes[0] = 'X';
  EXPECT_THROW((void)load_bytes(bytes), std::runtime_error);
  EXPECT_THROW((void)load_bytes("short"), std::runtime_error);
  EXPECT_THROW((void)load_bytes(""), std::runtime_error);
}

TEST(ModelBundleTest, RejectsVersionMismatch) {
  ModelBundle bundle;
  bundle.add("a", "x");
  std::string bytes = bundle_bytes(bundle);
  // The version field is the u32 LE right after the 8-byte magic.
  bytes[8] = static_cast<char>(kBundleFormatVersion + 1);
  try {
    (void)load_bytes(bytes);
    FAIL() << "version mismatch must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(ModelBundleTest, RejectsTruncatedStreamAtEveryBoundary) {
  ModelBundle bundle;
  bundle.add("model-a", "0123456789");
  bundle.add("model-b", "abcdef");
  const std::string bytes = bundle_bytes(bundle);
  // Chopping the stream anywhere must reject — header, section framing,
  // or mid-payload.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)load_bytes(bytes.substr(0, cut)), std::runtime_error)
        << "cut at byte " << cut;
  }
}

TEST(ModelBundleTest, RejectsTrailingBytesAfterLastSection) {
  ModelBundle bundle;
  bundle.add("a", "x");
  EXPECT_THROW((void)load_bytes(bundle_bytes(bundle) + "junk"),
               std::runtime_error);
}

// ---- per-model persistence round-trips -------------------------------------

baselines::MuterEntropyIds trained_muter() {
  std::vector<baselines::SymbolWindow> windows(4);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    windows[i].frames = 100;
    windows[i].entropy = 3.0 + 0.1 * static_cast<double>(i) + 1e-13;
  }
  baselines::MuterConfig config;
  config.alpha = 4.5;
  config.min_threshold = 0.015;
  config.min_window_frames = 17;
  return baselines::MuterEntropyIds(windows, config);
}

TEST(MuterModelIoTest, RoundTripIsByteExact) {
  const baselines::MuterEntropyIds original = trained_muter();
  std::ostringstream first;
  original.save(first);

  std::istringstream in(first.str());
  const baselines::MuterEntropyIds restored =
      baselines::MuterEntropyIds::load(in);
  // Bit-exact learned state (17-significant-digit round trip)...
  EXPECT_EQ(restored.mean_entropy(), original.mean_entropy());
  EXPECT_EQ(restored.threshold(), original.threshold());
  EXPECT_EQ(restored.config().alpha, original.config().alpha);
  EXPECT_EQ(restored.config().min_threshold, original.config().min_threshold);
  EXPECT_EQ(restored.config().min_window_frames,
            original.config().min_window_frames);
  // ...and byte-exact re-serialization.
  std::ostringstream second;
  restored.save(second);
  EXPECT_EQ(second.str(), first.str());

  // The restored model judges windows identically.
  baselines::SymbolWindow probe;
  probe.frames = 100;
  probe.entropy = 3.6;
  const auto a = original.evaluate(probe);
  const auto b = restored.evaluate(probe);
  EXPECT_EQ(a.alert, b.alert);
  EXPECT_EQ(a.deviation, b.deviation);
  EXPECT_EQ(a.threshold, b.threshold);
}

TEST(MuterModelIoTest, LoadRejectsMalformedStreams) {
  const auto load_text = [](const std::string& text) {
    std::istringstream in(text);
    return baselines::MuterEntropyIds::load(in);
  };
  EXPECT_THROW((void)load_text("not a model"), std::runtime_error);
  EXPECT_THROW((void)load_text("canids-muter-model v1\n"),
               std::runtime_error);
  EXPECT_THROW((void)load_text("canids-muter-model v1\nalpha nope\n"),
               std::runtime_error);
  // Trailing garbage after a complete model.
  std::ostringstream out;
  trained_muter().save(out);
  EXPECT_THROW((void)load_text(out.str() + "garbage\n"), std::runtime_error);
  // Parseable but out-of-range values are stream errors too, not contract
  // violations.
  EXPECT_THROW((void)load_text("canids-muter-model v1\nalpha -1\n"
                               "min_threshold 0.01\nmin_window_frames 20\n"
                               "mean_entropy 3\nthreshold 0.1\n"),
               std::runtime_error);
  // A negative frame count must not wrap through stoull into a detector
  // whose evaluation floor no window can reach.
  EXPECT_THROW((void)load_text("canids-muter-model v1\nalpha 5\n"
                               "min_threshold 0.01\nmin_window_frames -1\n"
                               "mean_entropy 3\nthreshold 0.1\n"),
               std::runtime_error);
  EXPECT_THROW((void)load_text("canids-muter-model v1\nalpha 5\n"
                               "min_threshold 0.01\nmin_window_frames 20\n"
                               "mean_entropy nan\nthreshold 0.1\n"),
               std::runtime_error);
}

baselines::IntervalIds trained_interval() {
  baselines::IntervalConfig config;
  config.fast_ratio = 0.4;
  config.violations_to_alert = 2;
  config.alert_on_unseen = true;
  baselines::IntervalIds model(config);
  for (int frame = 0; frame < 50; ++frame) {
    model.train(frame * 10 * util::kMillisecond, 0x100);
    model.train(frame * 25 * util::kMillisecond + 3, 0x2A7);
    model.train(frame * 40 * util::kMillisecond + 7, 0x555);
  }
  model.finish_training();
  return model;
}

TEST(IntervalModelIoTest, RoundTripIsByteExact) {
  const baselines::IntervalIds original = trained_interval();
  std::ostringstream first;
  original.save(first);

  std::istringstream in(first.str());
  const baselines::IntervalIds restored = baselines::IntervalIds::load(in);
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.tracked_ids(), original.tracked_ids());
  EXPECT_EQ(restored.config().fast_ratio, original.config().fast_ratio);
  EXPECT_EQ(restored.config().violations_to_alert,
            original.config().violations_to_alert);
  EXPECT_EQ(restored.config().alert_on_unseen,
            original.config().alert_on_unseen);

  std::ostringstream second;
  restored.save(second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(IntervalModelIoTest, SaveRequiresTrainedLoadRejectsMalformed) {
  baselines::IntervalIds untrained;
  std::ostringstream out;
  EXPECT_ANY_THROW(untrained.save(out));

  const auto load_text = [](const std::string& text) {
    std::istringstream in(text);
    return baselines::IntervalIds::load(in);
  };
  EXPECT_THROW((void)load_text("wrong magic"), std::runtime_error);
  EXPECT_THROW(
      (void)load_text("canids-interval-model v1\nfast_ratio 0.5\n"),
      std::runtime_error);
  // Row-count mismatch: header promises 2 rows, stream holds 1.
  EXPECT_THROW(
      (void)load_text("canids-interval-model v1\nfast_ratio 0.5\n"
                      "violations_to_alert 3\nalert_on_unseen 0\n"
                      "ids 2\n256 10000000\n"),
      std::runtime_error);
  // Duplicate id row.
  EXPECT_THROW(
      (void)load_text("canids-interval-model v1\nfast_ratio 0.5\n"
                      "violations_to_alert 3\nalert_on_unseen 0\n"
                      "ids 2\n256 10000000\n256 20000000\n"),
      std::runtime_error);
  // Trailing garbage after the last row.
  std::ostringstream saved;
  trained_interval().save(saved);
  EXPECT_THROW((void)load_text(saved.str() + "extra row\n"),
               std::runtime_error);
  // Parseable but out-of-range config is a stream error, not a contract
  // violation.
  EXPECT_THROW(
      (void)load_text("canids-interval-model v1\nfast_ratio 1.5\n"
                      "violations_to_alert 3\nalert_on_unseen 0\nids 0\n"),
      std::runtime_error);
}

// Integer fields are plain digits: a sign never loads, and a negative value
// never wraps into a valid one.
TEST(IntervalModelIoTest, LoadRejectsSignedIntegers) {
  const auto load_error = [](const std::string& violations,
                             const std::string& ids, const std::string& row) {
    std::istringstream in("canids-interval-model v1\nfast_ratio 0.5\n"
                          "violations_to_alert " + violations +
                          "\nalert_on_unseen 0\nids " + ids + "\n" + row);
    try {
      (void)baselines::IntervalIds::load(in);
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("loaded");
  };
  EXPECT_EQ(load_error("3", "1", "256 10000000\n"), "loaded");
  // -18446744073709551360 wraps through 2^64 to 256.
  EXPECT_EQ(load_error("3", "1", "-18446744073709551360 10000000\n"),
            "interval model: malformed id row "
            "'-18446744073709551360 10000000'");
  EXPECT_EQ(load_error("3", "1", "+256 10000000\n"),
            "interval model: malformed id row '+256 10000000'");
  EXPECT_EQ(load_error("+3", "1", "256 10000000\n"),
            "interval model: malformed violations_to_alert '+3'");
  EXPECT_EQ(load_error("3", "-1", ""),
            "interval model: malformed id count '-1'");
}

// ---- the typed store -------------------------------------------------------

ids::GoldenTemplate trained_template() {
  ids::TemplateBuilder builder(4);
  for (int w = 0; w < 3; ++w) {
    ids::WindowSnapshot snap;
    snap.start = w * util::kSecond;
    snap.end = (w + 1) * util::kSecond;
    snap.frames = 50;
    snap.entropies = {0.1 + 0.01 * w, 0.5, 0.9 - 0.01 * w, 0.3};
    snap.probabilities = {0.2, 0.4 + 0.02 * w, 0.6, 0.8};
    builder.add_window(snap);
  }
  return builder.build();
}

TEST(ModelStoreTest, PackUnpackRoundTripsEveryModel) {
  StoredModels models;
  models.golden =
      std::make_shared<const ids::GoldenTemplate>(trained_template());
  models.muter =
      std::make_shared<const baselines::MuterEntropyIds>(trained_muter());
  models.interval =
      std::make_shared<const baselines::IntervalIds>(trained_interval());

  const ModelBundle bundle = pack(models);
  EXPECT_TRUE(bundle.contains(kGoldenSection));
  EXPECT_TRUE(bundle.contains(kMuterSection));
  EXPECT_TRUE(bundle.contains(kIntervalSection));

  const StoredModels restored = unpack(load_bytes(bundle_bytes(bundle)));
  ASSERT_NE(restored.golden, nullptr);
  ASSERT_NE(restored.muter, nullptr);
  ASSERT_NE(restored.interval, nullptr);
  EXPECT_EQ(*restored.golden, *models.golden);
  EXPECT_EQ(restored.muter->mean_entropy(), models.muter->mean_entropy());
  EXPECT_EQ(restored.muter->threshold(), models.muter->threshold());
  EXPECT_EQ(restored.interval->tracked_ids(), models.interval->tracked_ids());
  std::ostringstream restored_text;
  std::ostringstream original_text;
  restored.interval->save(restored_text);
  models.interval->save(original_text);
  EXPECT_EQ(restored_text.str(), original_text.str());
}

TEST(ModelStoreTest, PartialBundlesAreValidEmptyOnesAreNot) {
  StoredModels golden_only;
  golden_only.golden =
      std::make_shared<const ids::GoldenTemplate>(trained_template());
  const StoredModels restored = unpack(pack(golden_only));
  EXPECT_NE(restored.golden, nullptr);
  EXPECT_EQ(restored.muter, nullptr);
  EXPECT_EQ(restored.interval, nullptr);

  EXPECT_THROW((void)pack(StoredModels{}), std::invalid_argument);
}

TEST(ModelStoreTest, UnpackRejectsUnknownSections) {
  ModelBundle bundle;
  bundle.add("future-model", "bytes");
  EXPECT_THROW((void)unpack(bundle), std::runtime_error);
}

TEST(ModelStoreTest, FileRoundTripAndLegacyTemplateFallback) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "canids_model_store_test";
  std::filesystem::create_directories(dir);

  StoredModels models;
  models.golden =
      std::make_shared<const ids::GoldenTemplate>(trained_template());
  models.interval =
      std::make_shared<const baselines::IntervalIds>(trained_interval());
  const std::filesystem::path bundle_path = dir / "bundle.canids";
  save_models_file(bundle_path, models);
  const StoredModels loaded_bundle = load_models_file(bundle_path);
  ASSERT_NE(loaded_bundle.golden, nullptr);
  EXPECT_EQ(*loaded_bundle.golden, *models.golden);
  ASSERT_NE(loaded_bundle.interval, nullptr);
  EXPECT_EQ(loaded_bundle.muter, nullptr);

  // A legacy bare golden-template text file loads as golden-only models.
  const std::filesystem::path legacy_path = dir / "legacy.tpl";
  {
    std::ofstream out(legacy_path);
    models.golden->save(out);
  }
  const StoredModels from_legacy = load_models_file(legacy_path);
  ASSERT_NE(from_legacy.golden, nullptr);
  EXPECT_EQ(*from_legacy.golden, *models.golden);
  EXPECT_EQ(from_legacy.muter, nullptr);
  EXPECT_EQ(from_legacy.interval, nullptr);

  EXPECT_THROW((void)load_models_file(dir / "missing.canids"),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(ModelStoreTest, DescribeSectionSummarisesEachModel) {
  StoredModels models;
  models.golden =
      std::make_shared<const ids::GoldenTemplate>(trained_template());
  models.muter =
      std::make_shared<const baselines::MuterEntropyIds>(trained_muter());
  models.interval =
      std::make_shared<const baselines::IntervalIds>(trained_interval());
  const ModelBundle bundle = pack(models);
  for (const ModelBundle::Section& section : bundle.sections()) {
    EXPECT_FALSE(describe_section(section).empty()) << section.name;
  }
  EXPECT_THROW((void)describe_section(
                   ModelBundle::Section{"future-model", "bytes"}),
               std::runtime_error);
}

}  // namespace
}  // namespace canids::model
