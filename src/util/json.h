// The repo's one JSON module. Every JSON writer in the tree — the serve
// alert codec, the telemetry event log, and the campaign spec and report
// emitters — escapes strings here, so there is one escaping implementation
// to trust. Every JSON reader — the campaign spec loader and the alert-line
// reader — parses with parse_json into a JsonValue tree and maps its fields
// out of that tree, so the grammar, the escape decoding, the whitespace
// set and the nesting limit each live in one place.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace canids::util {

/// Deepest array/object nesting parse_json accepts; the top-level value is
/// level 1. Every document the repo reads nests two or three levels; the
/// limit keeps a hostile file from exhausting the reader's stack.
inline constexpr int kMaxJsonDepth = 64;

/// Thrown by parse_json for text that is not one RFC 8259 JSON document.
class JsonError : public std::runtime_error {
 public:
  /// `document` names what was being read, `offset` is the byte offset at
  /// which the text stopped making sense.
  JsonError(std::string_view document, std::string_view what,
            std::size_t offset);
};

/// Thrown when a JSON document nests deeper than kMaxJsonDepth.
class JsonDepthError : public JsonError {
 public:
  /// `offset` is the byte offset of the bracket that went one level too
  /// deep.
  JsonDepthError(std::string_view document, std::size_t offset);
};

/// One parsed JSON value. Object members keep document order, duplicates
/// included, so a caller that assigns fields while walking them gets
/// last-value-wins.
struct JsonValue {
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Type type = Type::kNull;
  bool boolean = false;
  /// kString: the decoded bytes. kNumber: the validated number token as
  /// written, converted on demand so 64-bit integers stay exact.
  std::string text;
  std::vector<JsonValue> items;                            ///< kArray
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject
  /// Byte offset of the value's first character in its document.
  std::size_t offset = 0;

  /// The value as `T`, or nullopt when it is not one: std::string for a
  /// string, bool for a bool, std::vector<U> for an array of U, and an
  /// arithmetic `T` for a number converted by std::from_chars over its
  /// whole token — so an integral `T` takes only a plain integer (no
  /// fraction, no exponent) whose exact value fits, and double any number
  /// within its range.
  template <class T>
  [[nodiscard]] std::optional<T> get() const {
    if constexpr (std::is_same_v<T, std::string>) {
      if (type == Type::kString) return text;
    } else if constexpr (std::is_same_v<T, bool>) {
      if (type == Type::kBool) return boolean;
    } else if constexpr (std::is_arithmetic_v<T>) {
      const char* const end = text.data() + text.size();
      T value{};
      const auto [ptr, ec] = std::from_chars(text.data(), end, value);
      if (type == Type::kNumber && ec == std::errc{} && ptr == end) {
        return value;
      }
    } else if (type == Type::kArray) {  // T is a std::vector
      T out;
      for (const JsonValue& item : items) {
        auto element = item.get<typename T::value_type>();
        if (!element) return std::nullopt;
        out.push_back(std::move(*element));
      }
      return out;
    }
    return std::nullopt;
  }
};

/// Parse `text` as exactly one RFC 8259 JSON value: the four whitespace
/// characters, all eight escapes, `\u` escapes (surrogate pairs included)
/// decoded to UTF-8. Lone surrogates, raw control characters in strings,
/// non-JSON number spellings and trailing characters throw JsonError,
/// nesting past kMaxJsonDepth throws JsonDepthError; both name `document`
/// and the byte offset. Non-ASCII bytes pass through strings unvalidated,
/// as append_json_string writes them.
[[nodiscard]] JsonValue parse_json(std::string_view text,
                                   std::string_view document);

/// Append a JSON string literal (quotes + escaping: `"` `\` control
/// characters; non-ASCII bytes pass through untouched).
void append_json_string(std::string& out, std::string_view value);

/// The same literal as a string, for stream writers.
[[nodiscard]] std::string json_string(std::string_view value);

/// Append a double with round-trip precision (%.17g). Callers only pass
/// finite values; "inf"/"nan" are never produced by this codebase.
void append_json_double(std::string& out, double value);

}  // namespace canids::util
