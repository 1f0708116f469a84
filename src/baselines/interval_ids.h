// Baseline [11]: Song, Kim & Kim, "Intrusion detection system based on the
// analysis of time intervals of CAN messages" (ICOIN 2016), as characterised
// by the paper's §V.E — learn the transmission period of every identifier,
// then alert when an identifier arrives markedly faster than its learned
// period. Storage is linear in the number of identifiers, and identifiers
// never seen in training are invisible to the detector (the blind spot the
// CMP11 experiment demonstrates).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "util/time.h"

namespace canids::baselines {

struct IntervalConfig {
  /// An arrival counts as "too fast" when the observed interval is below
  /// ratio * learned mean interval.
  double fast_ratio = 0.5;
  /// Number of too-fast arrivals of one ID within a window to raise the
  /// alert (single jittered frames are tolerated).
  int violations_to_alert = 3;
  /// When true, identifiers absent from training also alert (an obvious
  /// hardening the original scheme lacks; off by default to reproduce the
  /// paper's criticism).
  bool alert_on_unseen = false;
};

class IntervalIds {
 public:
  explicit IntervalIds(IntervalConfig config = {});

  /// Training phase: feed normal traffic.
  void train(util::TimeNs timestamp, std::uint32_t id);
  /// Call once after training to freeze the learned periods.
  void finish_training();

  struct FrameVerdict {
    bool known_id = true;
    bool too_fast = false;
  };

  /// Detection phase: feed one frame, get its verdict, and accumulate
  /// window state.
  FrameVerdict observe(util::TimeNs timestamp, std::uint32_t id);

  /// Window decision: true when any identifier accumulated enough
  /// violations. Resets the per-window violation state.
  [[nodiscard]] bool window_alert_and_reset();

  /// Largest per-ID violation count seen in the current window — the
  /// detector's analog of a deviation metric (compare against
  /// config.violations_to_alert). Reset by window_alert_and_reset().
  [[nodiscard]] int window_peak_violations() const noexcept {
    return window_peak_violations_;
  }

  [[nodiscard]] bool trained() const noexcept { return trained_; }
  [[nodiscard]] const IntervalConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t tracked_ids() const noexcept {
    return learned_.size();
  }

  /// Stream persistence ("canids-interval-model v1", text): config plus the
  /// frozen learned periods, one `id mean_interval_ns` row per identifier
  /// in ascending ID order (deterministic bytes for any map layout). Only a
  /// trained model can be saved; load() returns a trained model with
  /// pristine runtime state. load() is strict — wrong magic, malformed or
  /// duplicate rows, a row-count mismatch, and trailing garbage all throw
  /// std::runtime_error.
  void save(std::ostream& out) const;
  [[nodiscard]] static IntervalIds load(std::istream& in);
  /// Bytes of per-ID learned + runtime state (the §V.E storage argument).
  [[nodiscard]] std::size_t state_bytes() const noexcept;

 private:
  struct TrainState {
    util::TimeNs last_seen = -1;
    util::TimeNs interval_sum = 0;
    std::uint64_t intervals = 0;
  };
  struct RunState {
    util::TimeNs mean_interval = 0;
    util::TimeNs last_seen = -1;
    int window_violations = 0;
  };

  IntervalConfig config_;
  bool trained_ = false;
  std::unordered_map<std::uint32_t, TrainState> training_;
  std::unordered_map<std::uint32_t, RunState> learned_;
  bool window_alert_ = false;
  int window_peak_violations_ = 0;
  std::uint64_t unseen_frames_ = 0;
};

}  // namespace canids::baselines
