#include "util/json.h"

#include <cstdio>

namespace canids::util {

JsonError::JsonError(std::string_view document, std::string_view what,
                     std::size_t offset)
    : std::runtime_error(std::string(document) + ": " + std::string(what) +
                         " (at offset " + std::to_string(offset) + ")") {}

JsonDepthError::JsonDepthError(std::string_view document, std::size_t offset)
    : JsonError(document,
                "nesting deeper than " + std::to_string(kMaxJsonDepth) +
                    " levels",
                offset) {}

namespace {

/// Recursive-descent reader over one document, strict to RFC 8259.
class Reader {
 public:
  Reader(std::string_view text, std::string_view document)
      : text_(text), document_(document) {}

  [[nodiscard]] JsonValue parse_document() {
    JsonValue value = parse_value(1);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(std::string_view what) const {
    throw JsonError(document_, what, pos_);
  }

  /// Whether the character at pos_ is one of `chars`.
  [[nodiscard]] bool at(std::string_view chars) const {
    return pos_ < text_.size() &&
           chars.find(text_[pos_]) != std::string_view::npos;
  }

  void skip_whitespace() {
    while (at(" \t\n\r")) ++pos_;
  }

  /// The next non-whitespace character, not consumed.
  [[nodiscard]] char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  /// `depth` is the nesting level of the value about to be read: 1 for the
  /// document's top-level value.
  JsonValue parse_value(int depth) {
    const char c = peek();
    JsonValue v;
    v.offset = pos_;
    if (c == '{' || c == '[') {
      if (depth > kMaxJsonDepth) throw JsonDepthError(document_, pos_);
      parse_container(v, depth);
    } else if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.text = parse_string();
    } else if (c == 't' || c == 'f' || c == 'n') {
      const std::string_view word =
          c == 't' ? "true" : c == 'f' ? "false" : "null";
      if (text_.substr(pos_, word.size()) != word) fail("bad literal");
      pos_ += word.size();
      v.type = c == 'n' ? JsonValue::Type::kNull : JsonValue::Type::kBool;
      v.boolean = c == 't';
    } else {
      v.type = JsonValue::Type::kNumber;
      v.text = number_token();
    }
    return v;
  }

  /// An object or array whose opening bracket is at pos_.
  void parse_container(JsonValue& v, int depth) {
    const bool object = text_[pos_++] == '{';
    const char close = object ? '}' : ']';
    v.type = object ? JsonValue::Type::kObject : JsonValue::Type::kArray;
    if (peek() == close) {
      ++pos_;
      return;
    }
    for (;;) {
      if (object) {
        if (peek() != '"') fail("object key must be a string");
        std::string key = parse_string();
        if (peek() != ':') fail("expected ':'");
        ++pos_;
        v.members.emplace_back(std::move(key), parse_value(depth + 1));
      } else {
        v.items.push_back(parse_value(depth + 1));
      }
      const char c = peek();
      if (c != ',' && c != close) {
        fail(std::string("expected ',' or '") + close + "'");
      }
      ++pos_;
      if (c == close) return;
    }
  }

  /// A string literal whose opening quote is at pos_, decoded.
  std::string parse_string() {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    std::string out;
    for (++pos_;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
      } else if (at("u")) {
        ++pos_;
        append_utf8(out, code_point());
      } else if (at(kEscapes)) {
        out.push_back(kDecoded[kEscapes.find(text_[pos_++])]);
      } else {
        fail("unknown escape sequence");
      }
    }
  }

  /// The code point of a \u escape whose 'u' was just consumed; a high
  /// surrogate must be followed by an escaped low one.
  unsigned code_point() {
    const auto hex4 = [&] {
      const char* const first = text_.data() + pos_;
      unsigned code = 0;
      if (text_.size() - pos_ < 4 ||
          std::from_chars(first, first + 4, code, 16).ptr != first + 4) {
        fail("bad \\u escape");
      }
      pos_ += 4;
      return code;
    };
    const std::size_t start = pos_ - 2;
    const unsigned high = hex4();
    if (high < 0xD800 || high > 0xDFFF) return high;
    if (high <= 0xDBFF && text_.substr(pos_, 2) == "\\u") {
      pos_ += 2;
      const unsigned low = hex4();
      if (low >= 0xDC00 && low <= 0xDFFF) {
        return 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
      }
    }
    pos_ = start;
    fail("lone surrogate \\u escape");
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
      return;
    }
    // A lead byte of 110xxxxx, 1110xxxx or 11110xxx, then 10xxxxxx bytes.
    const int tail = code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    out.push_back(static_cast<char>((0xFF80u >> tail) | (code >> 6 * tail)));
    for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
      out.push_back(static_cast<char>(0x80 | ((code >> shift) & 0x3F)));
    }
  }

  /// -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?, kept verbatim.
  std::string number_token() {
    static constexpr std::string_view kDigits = "0123456789";
    const std::size_t start = pos_;
    if (!at("-") && !at(kDigits)) fail("unexpected character");
    const auto digits = [&] {
      const std::size_t first = pos_;
      while (at(kDigits)) ++pos_;
      return pos_ > first;
    };
    if (at("-")) ++pos_;
    const std::size_t integer = pos_;
    // A leading zero stands alone.
    bool ok = digits() && (text_[integer] != '0' || pos_ == integer + 1);
    if (ok && at(".")) {
      ++pos_;
      ok = digits();
    }
    if (ok && at("eE")) {
      ++pos_;
      if (at("+-")) ++pos_;
      ok = digits();
    }
    if (!ok) {
      pos_ = start;
      fail("malformed number");
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  std::string_view text_;
  std::string_view document_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text, std::string_view document) {
  return Reader(text, document).parse_document();
}

void append_json_string(std::string& out, std::string_view value) {
  out.push_back('"');
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string json_string(std::string_view value) {
  std::string out;
  append_json_string(out, value);
  return out;
}

void append_json_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace canids::util
