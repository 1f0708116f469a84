// ModelStore: the typed layer over ModelBundle. A bundle is opaque named
// sections; the store knows which section holds which trained model, how to
// serialize each one, and how to read legacy artifacts (a bare
// golden-template text file from before bundles existed). Everything that
// persists or cold-starts trained detectors — `canids train --save`,
// `detect|fleet|campaign --model`, metrics::SharedModels — goes through
// these functions, so the set of known sections has exactly one home.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <memory>
#include <string_view>

#include "baselines/interval_ids.h"
#include "baselines/muter_entropy.h"
#include "ids/golden_template.h"
#include "model/bundle.h"

namespace canids::model {

/// Section names, one per trained model (matching the detector-registry
/// backend each model belongs to).
inline constexpr std::string_view kGoldenSection = "golden-template";
inline constexpr std::string_view kMuterSection = "symbol-entropy";
inline constexpr std::string_view kIntervalSection = "interval";

/// The trained models a bundle can carry, as immutable shared handles —
/// absent entries are null (partial bundles are valid: a capture with too
/// little clean traffic for an entropy band still yields a template). It is
/// also the set a running backend hot-reloads (analysis::ModelRefs).
struct StoredModels {
  std::shared_ptr<const ids::GoldenTemplate> golden;
  std::shared_ptr<const baselines::MuterEntropyIds> muter;
  std::shared_ptr<const baselines::IntervalIds> interval;

  [[nodiscard]] bool empty() const noexcept {
    return !golden && !muter && !interval;
  }
};

/// Serialize every non-null model into its section. Throws
/// std::invalid_argument when all entries are null (an empty bundle is
/// always a caller bug).
[[nodiscard]] ModelBundle pack(const StoredModels& models);

/// Deserialize every known section. Unknown section names throw
/// std::runtime_error — a bundle written by a newer build must not
/// half-load (the format version gates layout changes; sections gate
/// content).
[[nodiscard]] StoredModels unpack(const ModelBundle& bundle);

/// One-line human summary of a section's model ("width 11, 35 training
/// windows, pairs yes"). Throws on unknown section names.
[[nodiscard]] std::string describe_section(const ModelBundle::Section& section);

/// Load trained models from a file: a ModelBundle (by magic), or — legacy —
/// a bare golden-template text file, returned as a golden-only StoredModels.
/// Throws std::runtime_error when the file cannot be opened or parsed.
[[nodiscard]] StoredModels load_models_file(
    const std::filesystem::path& path);

/// Save as a bundle. Throws std::runtime_error on I/O failure and
/// std::invalid_argument when `models` is empty.
void save_models_file(const std::filesystem::path& path,
                      const StoredModels& models);

}  // namespace canids::model
