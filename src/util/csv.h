// Minimal CSV reading/writing used by the trace parsers and result dumps.
// Handles quoted fields with embedded commas/quotes (RFC 4180 subset).
#pragma once

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace canids::util {

/// Split one CSV line into fields. Supports double-quoted fields with
/// escaped quotes (""). Does not support embedded newlines (the trace
/// formats we parse never contain them).
[[nodiscard]] std::vector<std::string> split_csv_line(std::string_view line);

/// Escape and join fields into one CSV line (no trailing newline).
[[nodiscard]] std::string join_csv_line(const std::vector<std::string>& fields);

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Case-insensitive ASCII string equality.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Parse a non-negative decimal-seconds literal ("1436509052.249713") into
/// exact nanoseconds, without going through double (which loses nanosecond
/// precision on epoch-sized values). Fractional digits beyond 9 are
/// truncated. Surrounding ASCII whitespace is allowed. Returns false on
/// malformed input.
[[nodiscard]] bool parse_decimal_seconds(std::string_view text,
                                         std::int64_t& nanoseconds) noexcept;

/// The scanning form of parse_decimal_seconds, for parsers that read a
/// literal in place: reads whitespace, digits, an optional '.' and fraction
/// digits, and whitespace from the front of [first, last), and returns
/// where it stopped (the caller checks what follows). Returns nullptr, with
/// `nanoseconds` untouched, when no digit was read or the value does not
/// fit in int64 nanoseconds.
[[nodiscard]] const char* scan_decimal_seconds(
    const char* first, const char* last, std::int64_t& nanoseconds) noexcept;

/// Strict double parse: the whole token must be consumed and the value
/// finite (the rule every model/label text format shares — a trailing 'x'
/// or an inf/nan must reject, not truncate). Returns false on failure.
[[nodiscard]] bool parse_double_strict(std::string_view text,
                                       double& value) noexcept;

/// Strict unsigned integer parse: the whole token must be digits in `base`
/// (no sign, no whitespace, no prefix) and the value must fit in T, so a
/// negative field can never wrap. The integer fields of the model text
/// formats share this rule. Returns false, with `value` untouched, on
/// failure.
template <class T>
[[nodiscard]] bool parse_digits_strict(std::string_view text, T& value,
                                       int base = 10) noexcept {
  // from_chars takes no whitespace and no '+'; only the '-' it accepts
  // for a signed T needs refusing here.
  if (text.empty() || text.front() == '-') return false;
  T parsed{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, parsed, base);
  if (ec != std::errc{} || end != last) return false;
  value = parsed;
  return true;
}

/// Read the next line of a keyed text format (the model-persistence
/// streams) as exactly `<key> <value>` and return the value token. Throws
/// std::runtime_error — prefixed with `context` — on a missing line, a
/// different key, or anything but exactly two whitespace-separated tokens.
[[nodiscard]] std::string read_keyed_line(std::istream& in,
                                          std::string_view key,
                                          std::string_view context);

/// Require that only blank lines remain — the shared trailing-garbage rule
/// of the keyed text formats. Throws std::runtime_error (prefixed with
/// `context`) naming the offending line otherwise.
void expect_stream_end(std::istream& in, std::string_view context);

/// Incremental CSV writer with a fixed header.
class CsvWriter {
 public:
  CsvWriter(std::ostream& os, std::vector<std::string> header);
  void write_row(const std::vector<std::string>& row);

 private:
  std::ostream& os_;
  std::size_t columns_;
};

}  // namespace canids::util
