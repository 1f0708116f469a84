// The alert wire format of the live fleet service: one JSON object per
// line (JSONL), one line per alerting window. The same renderer feeds the
// daemon's subscriber fan-out, its --alerts-out sink, and the batch
// `canids fleet --alerts-out` path — which is what makes "daemon output is
// verdict-identical to the batch run" a byte-level diff in CI.
//
// Schema (keys in this fixed order; absent detail arrays are omitted):
//   {"stream": "<key>", "start_ns": I, "end_ns": I, "frames": U,
//    "evaluated": B, "alert": B, "metric": D, "threshold": D,
//    "bits": [I...], "candidates": [U...], "voters": ["s"...]}
//
// Doubles are rendered with %.17g, so parse -> render round-trips to the
// same bytes; the reader accepts the schema in any key order (and ignores
// unknown keys) for forward compatibility.
#pragma once

#include <string>
#include <string_view>

#include "engine/alert_sink.h"
#include "util/json.h"

namespace canids::serve {

/// Render one alert as a JSON object (no trailing newline).
[[nodiscard]] std::string to_json_line(const engine::FleetAlert& alert);

/// Parse a line produced by to_json_line (or any key order / unknown-key
/// superset of the schema) with util::parse_json; a repeated key takes its
/// last value. Throws std::runtime_error on text that is not one JSON
/// object and on a schema field of the wrong type, including an integer
/// that does not fit its field exactly; util::JsonDepthError (one of
/// those) when the line nests deeper than util::kMaxJsonDepth.
[[nodiscard]] engine::FleetAlert parse_json_line(std::string_view line);

/// Shared JSON appenders (quotes + escaping; %.17g doubles) — the same
/// primitives the telemetry event log renders with.
using util::append_json_double;
using util::append_json_string;

}  // namespace canids::serve
