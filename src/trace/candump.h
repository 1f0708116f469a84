// Parser/writer for the SocketCAN `candump -l` log format, the de-facto
// interchange format for CAN captures:
//
//   (1436509052.249713) can0 0D1#8080000000008059
//   (1436509052.449813) can0 5E4#R2                  <- remote frame
//   (1436509053.000000) can1 18DB33F1#0102           <- 29-bit extended ID
//
// Extended identifiers are recognised by their 8-hex-digit ID field.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "trace/log_record.h"
#include "trace/trace_source.h"

namespace canids::trace {

/// One candump line's fields, as views into the scanned line.
struct CandumpFields {
  /// nullptr when the line parsed. Otherwise the ParseError message
  /// parse_candump_line throws, followed by `quoted` in quotes when
  /// quoted.data() is set (an empty quote quotes an empty field).
  const char* fault = nullptr;
  std::string_view quoted;
  util::TimeNs timestamp = 0;
  can::CanId id;
  bool remote = false;
  std::uint8_t remote_dlc = 0;
  std::string_view channel;
  /// A data frame's payload: an even count of validated hex digits.
  std::string_view data;
};

/// Scan one candump line in a single pass, without allocating: the
/// decoder both ingest paths share. On a fault, only `fault` and `quoted`
/// are meaningful.
[[nodiscard]] CandumpFields scan_candump_line(std::string_view line) noexcept;

/// Parse one candump log line. Throws ParseError on malformed input.
[[nodiscard]] LogRecord parse_candump_line(std::string_view line);

/// Render one record as a candump log line (no trailing newline).
[[nodiscard]] std::string to_candump_line(const LogRecord& record);

/// Streams a candump log record-by-record in constant memory. Blank lines
/// and '#'-comment lines are skipped; malformed lines throw ParseError
/// annotated with the 1-based line number.
class CandumpSource final : public RecordSource {
 public:
  /// Stream from a caller-owned stream (must outlive the source).
  explicit CandumpSource(std::istream& in);
  /// Stream from a file; throws std::runtime_error when it cannot open.
  explicit CandumpSource(const std::filesystem::path& path);

  std::optional<LogRecord> next_record() override;
  /// Scans each line straight to (timestamp, id); no LogRecord is built.
  std::size_t fill_ids(std::vector<can::TimedId>& out,
                       std::size_t max) override;

 private:
  /// Scan lines up to the next frame, skipping blank and '#' lines; false
  /// at end of stream. The views in `fields` point into line_.
  bool next_fields(CandumpFields& fields);

  std::unique_ptr<std::istream> owned_;
  std::istream* in_;
  std::string line_;  ///< reused per getline — one allocation per source
  std::size_t line_number_ = 0;
};

/// Read a whole stream; thin wrapper over CandumpSource.
[[nodiscard]] Trace read_candump(std::istream& in);

/// Write all records, one line each.
void write_candump(std::ostream& out, const Trace& trace);

}  // namespace canids::trace
