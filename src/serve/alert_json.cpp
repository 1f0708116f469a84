#include "serve/alert_json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace canids::serve {

std::string to_json_line(const engine::FleetAlert& alert) {
  const analysis::WindowVerdict& v = alert.verdict;
  std::string out;
  out.reserve(160);
  out += "{\"stream\": ";
  append_json_string(out, alert.stream);
  out += ", \"start_ns\": " + std::to_string(v.start);
  out += ", \"end_ns\": " + std::to_string(v.end);
  out += ", \"frames\": " + std::to_string(v.frames);
  out += ", \"evaluated\": ";
  out += v.evaluated ? "true" : "false";
  out += ", \"alert\": ";
  out += v.alert ? "true" : "false";
  out += ", \"metric\": ";
  append_json_double(out, v.metric);
  out += ", \"threshold\": ";
  append_json_double(out, v.threshold);
  if (v.detail) {
    if (!v.detail->alerted_bits.empty()) {
      out += ", \"bits\": [";
      for (std::size_t i = 0; i < v.detail->alerted_bits.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(v.detail->alerted_bits[i]);
      }
      out += "]";
    }
    if (!v.detail->ranked_candidates.empty()) {
      out += ", \"candidates\": [";
      for (std::size_t i = 0; i < v.detail->ranked_candidates.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(v.detail->ranked_candidates[i]);
      }
      out += "]";
    }
    if (!v.detail->voters.empty()) {
      out += ", \"voters\": [";
      for (std::size_t i = 0; i < v.detail->voters.size(); ++i) {
        if (i > 0) out += ", ";
        append_json_string(out, v.detail->voters[i]);
      }
      out += "]";
    }
  }
  out += "}";
  return out;
}

namespace {

/// Minimal recursive-descent parser for the one object shape above —
/// deliberately not a general JSON library (the repo has none, and the
/// schema is fixed), but strict about what it does accept.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  engine::FleetAlert parse() {
    engine::FleetAlert alert;
    bool has_detail = false;
    analysis::Alert detail;
    skip_ws();
    expect('{');
    skip_ws();
    if (!try_consume('}')) {
      for (;;) {
        const std::string key = parse_string();
        skip_ws();
        expect(':');
        skip_ws();
        if (key == "stream") {
          alert.stream = parse_string();
        } else if (key == "start_ns") {
          alert.verdict.start = parse_integer();
        } else if (key == "end_ns") {
          alert.verdict.end = parse_integer();
        } else if (key == "frames") {
          alert.verdict.frames = static_cast<std::uint64_t>(parse_integer());
        } else if (key == "evaluated") {
          alert.verdict.evaluated = parse_bool();
        } else if (key == "alert") {
          alert.verdict.alert = parse_bool();
        } else if (key == "metric") {
          alert.verdict.metric = parse_double();
        } else if (key == "threshold") {
          alert.verdict.threshold = parse_double();
        } else if (key == "bits") {
          has_detail = true;
          for (const long long bit : parse_int_array()) {
            detail.alerted_bits.push_back(static_cast<int>(bit));
          }
        } else if (key == "candidates") {
          has_detail = true;
          for (const long long id : parse_int_array()) {
            detail.ranked_candidates.push_back(
                static_cast<std::uint32_t>(id));
          }
        } else if (key == "voters") {
          has_detail = true;
          detail.voters = parse_string_array();
        } else {
          skip_value(1);  // forward compatibility
        }
        skip_ws();
        if (try_consume(',')) {
          skip_ws();
          continue;
        }
        expect('}');
        break;
      }
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after object");
    // An alerting verdict always carries detail (possibly with all arrays
    // empty — e.g. symbol-entropy); detail arrays on a non-alerting line
    // are accepted and dropped, matching what the renderer can emit.
    (void)has_detail;
    if (alert.verdict.alert) alert.verdict.detail = std::move(detail);
    return alert;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("alert JSONL: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool try_consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      c = text_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (value > 0x7f) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(value));
          break;
        }
        default: fail("unknown escape");
      }
    }
    expect('"');
    return out;
  }

  std::string_view number_token() {
    const std::size_t begin = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == begin) fail("expected number");
    return text_.substr(begin, pos_ - begin);
  }

  long long parse_integer() {
    const std::string token(number_token());
    return std::strtoll(token.c_str(), nullptr, 10);
  }

  double parse_double() {
    const std::string token(number_token());
    return std::strtod(token.c_str(), nullptr);
  }

  bool parse_bool() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected true/false");
  }

  std::vector<long long> parse_int_array() {
    std::vector<long long> out;
    expect('[');
    skip_ws();
    if (try_consume(']')) return out;
    for (;;) {
      out.push_back(parse_integer());
      skip_ws();
      if (try_consume(',')) {
        skip_ws();
        continue;
      }
      expect(']');
      return out;
    }
  }

  std::vector<std::string> parse_string_array() {
    std::vector<std::string> out;
    expect('[');
    skip_ws();
    if (try_consume(']')) return out;
    for (;;) {
      out.push_back(parse_string());
      skip_ws();
      if (try_consume(',')) {
        skip_ws();
        continue;
      }
      expect(']');
      return out;
    }
  }

  /// Skip any JSON value (unknown keys) found inside `depth` open arrays
  /// and objects.
  void skip_value(int depth) {
    skip_ws();
    const char c = peek();
    if ((c == '[' || c == '{') && depth >= util::kMaxJsonDepth) {
      throw util::JsonDepthError("alert JSONL", pos_);
    }
    if (c == '"') {
      (void)parse_string();
    } else if (c == '[') {
      ++pos_;
      skip_ws();
      if (try_consume(']')) return;
      for (;;) {
        skip_value(depth + 1);
        skip_ws();
        if (try_consume(',')) continue;
        expect(']');
        return;
      }
    } else if (c == '{') {
      ++pos_;
      skip_ws();
      if (try_consume('}')) return;
      for (;;) {
        (void)parse_string();
        skip_ws();
        expect(':');
        skip_value(depth + 1);
        skip_ws();
        if (try_consume(',')) {
          skip_ws();
          continue;
        }
        expect('}');
        return;
      }
    } else if (c == 't' || c == 'f') {
      (void)parse_bool();
    } else if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      (void)number_token();
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

engine::FleetAlert parse_json_line(std::string_view line) {
  return Parser(line).parse();
}

}  // namespace canids::serve
