// The entropy detector (§IV.B): compare a window's per-bit entropy vector to
// the golden template bit by bit; a deviation beyond Th_i = alpha * range_i
// raises the intrusion alert. alpha is chosen from [3,10]; the paper uses 5.
#pragma once

#include <memory>
#include <vector>

#include "ids/golden_template.h"

namespace canids::ids {

struct DetectorConfig {
  /// Threshold multiplier alpha (paper: empirically from [3,10], chosen 5).
  double alpha = 5.0;
  /// Lower bound on every per-bit threshold, guarding against degenerate
  /// zero ranges when a bit was perfectly constant across training windows.
  double min_threshold = 0.01;
  /// Windows with fewer frames than this are not judged (too noisy).
  std::uint64_t min_window_frames = 20;
};

/// Per-bit evaluation detail.
struct BitDeviation {
  int bit = 0;                    ///< 0-based, MSB first
  double observed_entropy = 0.0;
  double template_entropy = 0.0;
  double deviation = 0.0;         ///< |observed - template mean|
  double delta_entropy = 0.0;     ///< observed - template mean (signed tail)
  double threshold = 0.0;         ///< Th_i
  bool alerted = false;
  double delta_probability = 0.0; ///< observed p_i - template p̄_i (signed)

  friend bool operator==(const BitDeviation&, const BitDeviation&) = default;
};

struct DetectionResult {
  bool evaluated = false;  ///< false when the window was below min frames
  bool alert = false;
  std::vector<BitDeviation> bits;
  std::vector<int> alerted_bits;
  util::TimeNs window_start = 0;
  util::TimeNs window_end = 0;
  std::uint64_t frames = 0;

  friend bool operator==(const DetectionResult&,
                         const DetectionResult&) = default;
};

class Detector {
 public:
  /// Primary constructor: shares an immutable template. Thousands of
  /// per-stream detectors (see engine::FleetEngine) reference one copy.
  Detector(std::shared_ptr<const GoldenTemplate> golden,
           DetectorConfig config = {});

  /// Convenience: wraps a caller-owned template into a private shared copy.
  explicit Detector(GoldenTemplate golden, DetectorConfig config = {});

  [[nodiscard]] DetectionResult evaluate(const WindowSnapshot& window) const;

  /// Th_i for every bit.
  [[nodiscard]] const std::vector<double>& thresholds() const noexcept {
    return thresholds_;
  }
  [[nodiscard]] const GoldenTemplate& golden() const noexcept {
    return *golden_;
  }
  [[nodiscard]] const DetectorConfig& config() const noexcept {
    return config_;
  }

 private:
  std::shared_ptr<const GoldenTemplate> golden_;
  DetectorConfig config_;
  std::vector<double> thresholds_;
};

}  // namespace canids::ids
