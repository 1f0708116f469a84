#include "serve/alert_json.h"

#include <string>

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

}  // namespace canids::serve
