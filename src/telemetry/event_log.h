// Structured lifecycle event log: one JSON object per line, written in
// sequence order. Where metrics answer "how much / how fast", the event
// log answers "what happened when" — stream open/close, model reloads
// with their generation, queue saturation drops, parse-error bursts,
// daemon start/stop.
//
// Line schema (compact, no spaces):
//   {"seq":N,"ts_ns":T,"type":"<event>",<event fields...>}
//
// `seq` starts at 0 and increases by exactly 1 per line; assignment and
// the write happen under one mutex, so file order always equals sequence
// order even with concurrent emitters — the property the monotonicity
// test and the CI awk check pin down. `ts_ns` is wall-clock nanoseconds
// since the Unix epoch (overridable for deterministic tests).
//
// Emission is cold-path only by design (no event is produced per frame or
// per window), and emit() never throws on I/O trouble — a full disk must
// not take down detection. ok() reports sink health.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace canids::telemetry {

class EventLog {
 public:
  /// Typed field value; rendered as a JSON string/integer/bool.
  class Value {
   public:
    Value(std::string text);  // NOLINT(google-explicit-constructor)
    Value(std::string_view text)  // NOLINT(google-explicit-constructor)
        : Value(std::string(text)) {}
    Value(const char* text)  // NOLINT(google-explicit-constructor)
        : Value(std::string(text)) {}
    Value(std::int64_t i);   // NOLINT(google-explicit-constructor)
    Value(std::uint64_t u);  // NOLINT(google-explicit-constructor)
    Value(int i) : Value(static_cast<std::int64_t>(i)) {}  // NOLINT
    Value(bool b);  // NOLINT(google-explicit-constructor)

   private:
    friend class EventLog;
    enum class Kind : std::uint8_t { kString, kInt, kUint, kBool };
    Kind kind_;
    std::string text_;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    bool bool_ = false;
  };
  using Field = std::pair<std::string_view, Value>;

  /// Append to `path` (created/truncated). Throws std::runtime_error when
  /// the file cannot be opened — a misconfigured sink should fail at
  /// startup, not silently during the run.
  explicit EventLog(const std::string& path);
  /// Write to a caller-owned stream (tests). The stream must outlive the
  /// log.
  explicit EventLog(std::ostream& out);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Emit one event; returns its sequence number. Thread-safe; never
  /// throws on write failure (see ok()).
  std::uint64_t emit(std::string_view type,
                     std::initializer_list<Field> fields = {});

  /// False once any write has failed.
  [[nodiscard]] bool ok() const noexcept;
  void flush();

  /// Replace the wall-clock source (tests pin timestamps with this).
  void set_clock(std::function<std::int64_t()> clock);

 private:
  mutable std::mutex mutex_;
  std::unique_ptr<std::ostream> owned_;
  std::ostream* out_;
  std::uint64_t seq_ = 0;
  bool failed_ = false;
  std::function<std::int64_t()> clock_;
};

/// Monotonic nanoseconds (steady_clock) — the hot-path latency timebase.
[[nodiscard]] std::int64_t steady_now_ns();

}  // namespace canids::telemetry
