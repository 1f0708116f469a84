// The detector table: the four built-in backends, constructed by name.
//
//   auto backend = analysis::make_detector("interval", options);
//
// The table is fixed at compile time and is the one home of each
// detector's name, paper citation and state-growth law: `canids detectors`
// lists it, every backend's describe() reads its own row, and every place
// a detector name is accepted — the CLI's --detector flag, the fleet
// engine, the experiment harness — resolves the name here.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "analysis/backends.h"
#include "analysis/detector_backend.h"
#include "baselines/interval_ids.h"
#include "baselines/muter_entropy.h"
#include "ids/pipeline.h"

namespace canids::analysis {

/// Everything a factory may need; each backend reads its slice and ignores
/// the rest, so one options object drives any detector in the table.
struct DetectorOptions {
  /// Windowing (shared by all backends: one duration, aligned windows),
  /// detector alpha, and inference knobs for the bit-entropy backend.
  ids::PipelineConfig pipeline;

  // -- bit-entropy ----------------------------------------------------------
  /// Trained golden template; required by "bit-entropy" (and so by
  /// "ensemble", which contains it).
  std::shared_ptr<const ids::GoldenTemplate> golden;
  /// Legal identifier set; non-empty enables malicious-ID inference.
  std::vector<std::uint32_t> id_pool;

  // -- baselines ------------------------------------------------------------
  baselines::MuterConfig muter;
  baselines::IntervalConfig interval;
  /// Pre-trained baseline models (immutable, shared across clones). When
  /// null, the backend self-calibrates on the first `calibration_windows`
  /// windows of its own stream.
  std::shared_ptr<const baselines::MuterEntropyIds> muter_model;
  std::shared_ptr<const baselines::IntervalIds> interval_model;
  std::size_t calibration_windows = 10;
};

/// Thrown by make_detector for names not in the table; the message lists
/// every detector name.
class UnknownDetectorError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Row positions of the built-ins in detector_table() (listing order).
enum class Builtin : std::uint8_t {
  kBitEntropy,
  kSymbolEntropy,
  kInterval,
  kEnsemble,
};

/// One row of the detector table.
struct DetectorEntry {
  std::string_view name;
  std::string_view paper;
  std::string_view state_growth;
  bool supports_inference = false;
  std::unique_ptr<DetectorBackend> (*make)(const DetectorOptions&) = nullptr;
};

/// The four built-ins, in listing order (indexed by Builtin).
[[nodiscard]] std::span<const DetectorEntry> detector_table() noexcept;

/// The static metadata of a built-in's row (state_bytes/trained unset).
[[nodiscard]] DetectorInfo builtin_info(Builtin detector);

[[nodiscard]] bool is_detector(std::string_view name) noexcept;

/// Construct a backend. Throws UnknownDetectorError for unknown names
/// and std::invalid_argument when `options` misses required pieces
/// (e.g. no golden template for "bit-entropy").
[[nodiscard]] std::unique_ptr<DetectorBackend> make_detector(
    std::string_view name, const DetectorOptions& options = {});

}  // namespace canids::analysis
