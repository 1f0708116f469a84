// Windowing of the identifier stream. The paper's detector reacts "in a
// time period of as short as 1 s"; windows are fixed time spans, 1 s by
// default.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "can/frame.h"
#include "ids/bit_counters.h"
#include "util/time.h"

namespace canids::ids {

/// Per-window measurement: the probability and entropy vectors plus frame
/// accounting. This is both the training sample for the golden template and
/// the unit the detector judges.
struct WindowSnapshot {
  util::TimeNs start = 0;
  util::TimeNs end = 0;
  std::uint64_t frames = 0;
  std::vector<double> probabilities;  ///< p_i per bit, MSB first
  std::vector<double> entropies;      ///< H_b(p_i) per bit
  /// q_ij per bit pair (flat upper-triangle order, see pair_index); empty
  /// when pair tracking is disabled. Used only by the inference extension.
  std::vector<double> pair_probabilities;

  [[nodiscard]] int width() const noexcept {
    return static_cast<int>(probabilities.size());
  }
  [[nodiscard]] bool has_pairs() const noexcept {
    return !pair_probabilities.empty();
  }

  friend bool operator==(const WindowSnapshot&,
                         const WindowSnapshot&) = default;
};

struct WindowConfig {
  /// Window length.
  util::TimeNs duration = util::kSecond;
  /// Track pairwise bit co-occurrence (55 extra counters, still O(1) in the
  /// ID count). Their one reader is malicious-ID inference
  /// (InferenceEngine::infer, against the pair means TemplateBuilder
  /// trains); detection never reads them, so analysis::BitEntropyBackend
  /// clears this flag when it has no ID pool to infer over.
  bool track_pairs = true;
};

/// Accumulates identifiers and emits a WindowSnapshot whenever a window
/// closes. Windows are aligned to the first frame's timestamp; empty
/// windows (bus silence) are skipped rather than emitted.
class WindowAccumulator {
 public:
  explicit WindowAccumulator(WindowConfig config = {});

  /// Feed one identifier; returns a snapshot when this frame closed the
  /// previous window (the frame itself is counted in the new window).
  std::optional<WindowSnapshot> add(util::TimeNs timestamp,
                                    const can::CanId& id);

  /// Batch path: feed `count` timestamped identifiers, appending the
  /// snapshot of every window they close to `out`. Bit-identical to
  /// calling add() per frame — the batch is split at window boundaries and
  /// each in-window run is block-counted by PairCounters::add_batch.
  void add_batch(const can::TimedId* frames, std::size_t count,
                 std::vector<WindowSnapshot>& out);

  /// Advance the window clock without counting a frame — for frames the
  /// caller must skip (e.g. width-mismatched identifiers) that still carry
  /// time. Keeps this accumulator's window boundaries aligned with
  /// detectors that do consume the skipped frame; may close a window
  /// exactly like add().
  std::optional<WindowSnapshot> advance(util::TimeNs timestamp);

  /// Emit whatever has accumulated (e.g. at end of trace); empty -> nullopt.
  std::optional<WindowSnapshot> flush();

  [[nodiscard]] const WindowConfig& config() const noexcept { return config_; }

 private:
  [[nodiscard]] WindowSnapshot snapshot(util::TimeNs start,
                                        util::TimeNs end) const;

  /// Count one identifier, paying the pair counters only when configured.
  void count_one(const can::CanId& id) {
    if (config_.track_pairs) {
      counters_.add(id.raw());
    } else {
      counters_.add_marginal(id.raw());
    }
  }

  WindowConfig config_;
  PairCounters counters_;
  util::WindowClock clock_;
  util::TimeNs last_timestamp_ = 0;
  std::vector<std::uint32_t> scratch_ids_;  ///< add_batch run buffer
};

/// Split a whole identifier stream into window snapshots in one call.
[[nodiscard]] std::vector<WindowSnapshot> windows_of(
    const std::vector<can::TimedFrame>& frames, const WindowConfig& config);

}  // namespace canids::ids
