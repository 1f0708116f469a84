// Simulation time base. All simulator code works in integer nanoseconds to
// keep event ordering exact (a CAN bit at 125 kbit/s is exactly 8000 ns).
#pragma once

#include <cstdint>
#include <optional>

namespace canids::util {

/// Nanoseconds since simulation start.
using TimeNs = std::int64_t;

inline constexpr TimeNs kNever = INT64_MAX;

inline constexpr TimeNs kMicrosecond = 1'000;
inline constexpr TimeNs kMillisecond = 1'000'000;
inline constexpr TimeNs kSecond = 1'000'000'000;

/// True when from_seconds(s) is defined: `s` is finite and s * kSecond
/// fits in TimeNs (|s| below about 9.2e9). Seconds read from a command line
/// or a file are checked with this first.
[[nodiscard]] constexpr bool seconds_representable(double s) noexcept {
  const double ns = s * static_cast<double>(kSecond);
  return ns >= -0x1p63 && ns < 0x1p63;  // false for NaN and infinities
}

/// Requires seconds_representable(s).
[[nodiscard]] constexpr TimeNs from_seconds(double s) noexcept {
  return static_cast<TimeNs>(s * static_cast<double>(kSecond));
}

[[nodiscard]] constexpr double to_seconds(TimeNs t) noexcept {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// The one time-window alignment rule shared by every windowed detector
/// (bit-entropy WindowAccumulator, symbol-entropy accumulator, interval
/// backend): windows are anchored to the first observed timestamp, close
/// when a timestamp reaches the boundary, and silent windows are skipped
/// by advancing the origin to the period containing the new timestamp.
/// Detectors sharing one duration therefore close windows on exactly the
/// same frames — the invariant the ensemble detector composes on.
class WindowClock {
 public:
  explicit constexpr WindowClock(TimeNs duration) noexcept
      : duration_(duration) {}

  /// Observe one timestamp. Returns the end of the window it closed, if
  /// any; the closed window spans [*end - duration, *end).
  constexpr std::optional<TimeNs> advance(TimeNs timestamp) noexcept {
    if (!started_) {
      started_ = true;
      start_ = timestamp;
      return std::nullopt;
    }
    if (timestamp < start_ + duration_) return std::nullopt;
    const TimeNs end = start_ + duration_;
    start_ += ((timestamp - start_) / duration_) * duration_;
    return end;
  }

  /// Re-anchor the open window at `origin` (after a flush, or to lazily
  /// start count-based windows that have no time boundary).
  constexpr void restart(TimeNs origin) noexcept {
    started_ = true;
    start_ = origin;
  }

  [[nodiscard]] constexpr TimeNs duration() const noexcept {
    return duration_;
  }
  /// Origin of the currently-open window (meaningful once started()).
  [[nodiscard]] constexpr TimeNs start() const noexcept { return start_; }
  [[nodiscard]] constexpr bool started() const noexcept { return started_; }

 private:
  TimeNs duration_;
  TimeNs start_ = 0;
  bool started_ = false;
};

}  // namespace canids::util
