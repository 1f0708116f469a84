// A single captured CAN frame as it appears in a log file: timestamp,
// channel name, frame. This is the interchange type between the parsers,
// the simulator taps, and the IDS pipeline.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "can/frame.h"
#include "util/time.h"

namespace canids::trace {

struct LogRecord {
  util::TimeNs timestamp = 0;
  std::string channel = "can0";
  can::Frame frame;

  friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

using Trace = std::vector<LogRecord>;

/// Thrown by all trace parsers on malformed input; the message starts with
/// the 1-based line number ("line 3: ...") when parsing a whole stream.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& message, std::size_t line = 0)
      : std::runtime_error(line == 0 ? message
                                     : "line " + std::to_string(line) + ": " +
                                           message) {}
};

}  // namespace canids::trace
