// Tiny shared JSON helpers. Every JSON writer in the tree — the serve
// alert codec, the telemetry event log, and the campaign spec and report
// emitters — escapes strings here, so there is one escaping implementation
// to trust. Both readers — the campaign spec parser and the alert codec —
// share one nesting limit and its error.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace canids::util {

/// Deepest array/object nesting a JSON reader in the tree accepts. Every
/// document the repo reads nests two or three levels; the limit keeps a
/// hostile file from exhausting the stack of a recursive reader.
inline constexpr int kMaxJsonDepth = 64;

/// Thrown when a JSON document nests deeper than kMaxJsonDepth.
class JsonDepthError : public std::runtime_error {
 public:
  /// `document` names what was being read, `offset` is the byte offset of
  /// the bracket that went one level too deep.
  JsonDepthError(std::string_view document, std::size_t offset);
};

/// Append a JSON string literal (quotes + escaping: `"` `\` control
/// characters; non-ASCII bytes pass through untouched).
void append_json_string(std::string& out, std::string_view value);

/// The same literal as a string, for stream writers.
[[nodiscard]] std::string json_string(std::string_view value);

/// Append a double with round-trip precision (%.17g). Callers only pass
/// finite values; "inf"/"nan" are never produced by this codebase.
void append_json_double(std::string& out, double value);

}  // namespace canids::util
