#include "serve/alert_json.h"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/time.h"

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

using util::JsonValue;

constexpr std::string_view kDocument = "alert JSONL";

/// `v` as the field type T (see util::JsonValue::get); throws naming the
/// key and the offset when it is not one.
template <class T>
T as(const std::string& key, const JsonValue& v, std::string_view expected) {
  std::optional<T> value = v.get<T>();
  if (!value) {
    throw std::runtime_error(std::string(kDocument) + ": key '" + key +
                             "' expects " + std::string(expected) +
                             " (at offset " + std::to_string(v.offset) + ")");
  }
  return std::move(*value);
}

}  // namespace

engine::FleetAlert parse_json_line(std::string_view line) {
  const JsonValue root = util::parse_json(line, kDocument);
  if (root.type != JsonValue::Type::kObject) {
    throw std::runtime_error(std::string(kDocument) +
                             ": top level must be an object");
  }
  engine::FleetAlert alert;
  analysis::WindowVerdict& verdict = alert.verdict;
  analysis::Alert detail;
  for (const auto& [key, value] : root.members) {
    if (key == "stream") {
      alert.stream = as<std::string>(key, value, "a string");
    } else if (key == "start_ns") {
      verdict.start = as<util::TimeNs>(key, value, "a 64-bit integer");
    } else if (key == "end_ns") {
      verdict.end = as<util::TimeNs>(key, value, "a 64-bit integer");
    } else if (key == "frames") {
      verdict.frames =
          as<std::uint64_t>(key, value, "an unsigned 64-bit integer");
    } else if (key == "evaluated") {
      verdict.evaluated = as<bool>(key, value, "true/false");
    } else if (key == "alert") {
      verdict.alert = as<bool>(key, value, "true/false");
    } else if (key == "metric") {
      verdict.metric = as<double>(key, value, "a number");
    } else if (key == "threshold") {
      verdict.threshold = as<double>(key, value, "a number");
    } else if (key == "bits") {
      detail.alerted_bits =
          as<std::vector<int>>(key, value, "an array of ints");
    } else if (key == "candidates") {
      detail.ranked_candidates = as<std::vector<std::uint32_t>>(
          key, value, "an array of unsigned 32-bit integers");
    } else if (key == "voters") {
      detail.voters =
          as<std::vector<std::string>>(key, value, "an array of strings");
    }
    // Unknown keys are ignored for forward compatibility.
  }
  // An alerting verdict always carries detail (possibly with all arrays
  // empty — e.g. symbol-entropy); detail arrays on a non-alerting line
  // are accepted and dropped, matching what the renderer can emit.
  if (verdict.alert) verdict.detail = std::move(detail);
  return alert;
}

}  // namespace canids::serve
