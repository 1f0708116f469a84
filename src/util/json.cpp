#include "util/json.h"

#include <cstdio>

namespace canids::util {

JsonDepthError::JsonDepthError(std::string_view document, std::size_t offset)
    : std::runtime_error(std::string(document) + ": nesting deeper than " +
                         std::to_string(kMaxJsonDepth) + " levels (at offset " +
                         std::to_string(offset) + ")") {}

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
