#include "analysis/registry.h"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

namespace canids::analysis {

namespace {

[[nodiscard]] std::unique_ptr<DetectorBackend> make_bit_entropy(
    const DetectorOptions& options) {
  if (!options.golden) {
    throw std::invalid_argument(
        "detector 'bit-entropy' requires a trained golden template "
        "(DetectorOptions::golden) — run `canids train` or "
        "ExperimentRunner::train_shared() first");
  }
  return std::make_unique<BitEntropyBackend>(options.golden, options.id_pool,
                                             options.pipeline);
}

[[nodiscard]] std::unique_ptr<DetectorBackend> make_symbol_entropy(
    const DetectorOptions& options) {
  return std::make_unique<SymbolEntropyBackend>(
      options.muter_model, options.muter, options.pipeline.window.duration,
      options.calibration_windows);
}

[[nodiscard]] std::unique_ptr<DetectorBackend> make_interval(
    const DetectorOptions& options) {
  return std::make_unique<IntervalBackend>(
      options.interval_model, options.interval,
      options.pipeline.window.duration, options.calibration_windows);
}

[[nodiscard]] std::unique_ptr<DetectorBackend> make_ensemble(
    const DetectorOptions& options) {
  std::vector<std::unique_ptr<DetectorBackend>> members;
  members.push_back(make_bit_entropy(options));
  members.push_back(make_symbol_entropy(options));
  members.push_back(make_interval(options));
  return std::make_unique<EnsembleDetector>(std::move(members));
}

constexpr std::array<DetectorEntry, 4> kDetectors = {{
    {"bit-entropy", "Wang, Lu & Qu (SOCC 2018) — this paper",
     "O(1): 11 bit + 55 pair counters", true, make_bit_entropy},
    {"symbol-entropy", "Muter & Asaj (IV 2011) [8]",
     "O(#IDs): one counter per identifier", false, make_symbol_entropy},
    {"interval", "Song, Kim & Kim (ICOIN 2016) [11]",
     "O(#IDs): learned period per identifier", false, make_interval},
    {"ensemble", "composition over registered detectors", "sum of members",
     true, make_ensemble},
}};

constexpr bool row_is(Builtin detector, std::string_view name) {
  return kDetectors[static_cast<std::size_t>(detector)].name == name;
}
static_assert(row_is(Builtin::kBitEntropy, "bit-entropy") &&
              row_is(Builtin::kSymbolEntropy, "symbol-entropy") &&
              row_is(Builtin::kInterval, "interval") &&
              row_is(Builtin::kEnsemble, "ensemble"));

[[nodiscard]] const DetectorEntry* find(std::string_view name) noexcept {
  const auto it = std::find_if(
      kDetectors.begin(), kDetectors.end(),
      [&](const DetectorEntry& entry) { return entry.name == name; });
  return it == kDetectors.end() ? nullptr : &*it;
}

}  // namespace

std::span<const DetectorEntry> detector_table() noexcept {
  return kDetectors;
}

DetectorInfo builtin_info(Builtin detector) {
  const DetectorEntry& entry = kDetectors[static_cast<std::size_t>(detector)];
  DetectorInfo info;
  info.name = entry.name;
  info.paper = entry.paper;
  info.state_growth = entry.state_growth;
  info.supports_inference = entry.supports_inference;
  return info;
}

bool is_detector(std::string_view name) noexcept {
  return find(name) != nullptr;
}

std::unique_ptr<DetectorBackend> make_detector(std::string_view name,
                                               const DetectorOptions& options) {
  if (const DetectorEntry* entry = find(name)) return entry->make(options);
  std::string message =
      "unknown detector '" + std::string(name) + "'; registered detectors:";
  for (const DetectorEntry& entry : kDetectors) {
    message += " ";
    message += entry.name;
  }
  throw UnknownDetectorError(message);
}

}  // namespace canids::analysis
