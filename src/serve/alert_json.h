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
// Doubles are rendered with %.17g, so a reader recovers every value
// exactly.
#pragma once

#include <string>

#include "engine/alert_sink.h"
#include "util/json.h"

namespace canids::serve {

/// Render one alert as a JSON object (no trailing newline).
[[nodiscard]] std::string to_json_line(const engine::FleetAlert& alert);

/// Shared JSON appenders (quotes + escaping; %.17g doubles) — the same
/// primitives the telemetry event log renders with.
using util::append_json_double;
using util::append_json_string;

}  // namespace canids::serve
