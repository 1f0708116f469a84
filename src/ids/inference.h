// Malicious-ID inference (§V.C). Injected frames shift each bit's
// probability toward the injected ID's bit value; the signed per-bit shift
// therefore constrains the injected identifier(s):
//
//   * direction:  delta p_i < 0  =>  injected bit i is probably 0
//   * magnitude:  |delta p_i| = lambda * |b_i(S) - p̄_i|, where lambda is the
//     injected-traffic fraction and b_i(S) the mean bit-i value over the
//     injected ID set S — the "changing rate" the paper uses for multiple
//     injected IDs.
//
// The engine reproduces the paper's rank selection: candidates obeying the
// bit constraints are ranked (IDs sorted ascending = descending arbitration
// power), the first `rank` are reported, and a detection counts as a hit
// when the true ID is among them. For multiple IDs a beam search fits
// (S, lambda) to the observed shift vector. It skips, unfitted, a set whose
// least-squares residual over free real weights already rules it out of
// the beam; that bound is below any residual the fit could return, so the
// result is the same as fitting every set.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ids/golden_template.h"

namespace canids::ids {

struct InferenceConfig {
  /// Candidate list length (paper: rank = 10).
  int rank = 10;
};

/// One direction constraint derived from a shifted bit.
struct BitConstraint {
  int bit = 0;              ///< 0-based, MSB first
  bool injected_bit = false;
  double shift = 0.0;       ///< signed delta p_i

  friend bool operator==(const BitConstraint&, const BitConstraint&) = default;
};

struct InferenceResult {
  std::vector<BitConstraint> constraints;
  /// Best-first candidate identifiers, at most `rank` entries.
  std::vector<std::uint32_t> ranked_candidates;
  /// Best-fitting injected set (size = estimated_num_ids), ascending.
  std::vector<std::uint32_t> best_set;
  double estimated_injection_fraction = 0.0;  ///< fitted lambda
  int estimated_num_ids = 0;
  double fit_residual = 0.0;

  friend bool operator==(const InferenceResult&,
                         const InferenceResult&) = default;
};

class InferenceEngine {
 public:
  /// Primary constructor: shares an immutable template. `id_pool` is the
  /// legal identifier set of the vehicle (ascending or not; it is sorted
  /// internally). Must not be empty.
  InferenceEngine(std::shared_ptr<const GoldenTemplate> golden,
                  std::vector<std::uint32_t> id_pool,
                  InferenceConfig config = {});

  /// Convenience: wraps a caller-owned template into a private shared copy.
  InferenceEngine(GoldenTemplate golden, std::vector<std::uint32_t> id_pool,
                  InferenceConfig config = {});

  /// Infer the injected identifier(s) from one (typically alerted) window.
  [[nodiscard]] InferenceResult infer(const WindowSnapshot& window) const;

  [[nodiscard]] const std::vector<std::uint32_t>& id_pool() const noexcept {
    return id_pool_;
  }
  [[nodiscard]] const InferenceConfig& config() const noexcept {
    return config_;
  }

 private:
  [[nodiscard]] std::vector<BitConstraint> derive_constraints(
      const std::vector<double>& delta_p) const;
  [[nodiscard]] bool satisfies(std::uint32_t id,
                               const std::vector<BitConstraint>& cs) const;

  std::shared_ptr<const GoldenTemplate> golden_;
  std::vector<std::uint32_t> id_pool_;  // ascending
  InferenceConfig config_;
  /// Per-pool-ID centered feature patterns against the template (marginal
  /// and, when available, pairwise co-occurrence features).
  std::vector<std::vector<double>> patterns_;
};

/// Hit-rate scoring: fraction of the true injected IDs present in the
/// ranked candidate list (1.0 or 0.0 for a single ID; partial for multi).
[[nodiscard]] double inference_hit_fraction(
    const std::vector<std::uint32_t>& true_ids,
    const std::vector<std::uint32_t>& ranked_candidates);

}  // namespace canids::ids
