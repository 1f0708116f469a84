#include "trace/candump.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/csv.h"

namespace canids::trace {

namespace {

/// Hex digit value per byte, kNotHex for every other byte: one load both
/// classifies and converts, and OR-ing a run of lookups tests it once.
constexpr std::uint8_t kNotHex = 0x10;
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kNotHex);
  for (std::uint8_t d = 0; d < 10; ++d) table['0' + d] = d;
  for (std::uint8_t d = 0; d < 6; ++d) {
    table['a' + d] = static_cast<std::uint8_t>(10 + d);
    table['A' + d] = static_cast<std::uint8_t>(10 + d);
  }
  return table;
}();

[[nodiscard]] std::uint8_t hex_value(char c) noexcept {
  return kHexValue[static_cast<unsigned char>(c)];
}

/// The C-locale isspace set, the whitespace util::trim strips.
[[nodiscard]] bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

[[nodiscard]] const char* find_char(const char* first, const char* last,
                                    char c) noexcept {
  return static_cast<const char*>(
      std::memchr(first, c, static_cast<std::size_t>(last - first)));
}

[[nodiscard]] CandumpFields fail(CandumpFields& fields, const char* fault,
                                 std::string_view quoted = {}) noexcept {
  fields.fault = fault;
  fields.quoted = quoted;
  return fields;
}

[[nodiscard]] std::string fault_message(const CandumpFields& fields) {
  std::string message = fields.fault;
  if (fields.quoted.data() != nullptr) {
    message += " '";
    message += fields.quoted;
    message += "'";
  }
  return message;
}

[[nodiscard]] LogRecord record_of(const CandumpFields& fields) {
  LogRecord record{fields.timestamp, std::string(fields.channel), {}};
  if (fields.remote) {
    record.frame = can::Frame::remote_frame(fields.id, fields.remote_dlc);
    return record;
  }
  std::array<std::uint8_t, can::kMaxDataBytes> bytes{};
  const std::size_t size = fields.data.size() / 2;
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(hex_value(fields.data[2 * i]) << 4 |
                                         hex_value(fields.data[2 * i + 1]));
  }
  record.frame = can::Frame::data_frame(
      fields.id, std::span<const std::uint8_t>(bytes.data(), size));
  return record;
}

/// Blank and '#'-comment lines carry no frame; file ingest skips them.
[[nodiscard]] bool is_skipped(std::string_view line) noexcept {
  const std::string_view body = util::trim(line);
  return body.empty() || body.front() == '#';
}

}  // namespace

CandumpFields scan_candump_line(std::string_view line) noexcept {
  CandumpFields fields;
  const char* p = line.data();
  const char* end = p + line.size();
  while (p < end && is_space(*p)) ++p;
  while (end > p && is_space(end[-1])) --end;

  // --- "(timestamp)": the timestamp runs to the first ')' ------------------
  if (p == end || *p != '(') {
    return fail(fields, "expected '(timestamp)' prefix");
  }
  const char* const stamp = ++p;
  p = util::scan_decimal_seconds(stamp, end, fields.timestamp);
  if (p == nullptr || p == end || *p != ')') {
    const char* const close = find_char(stamp, end, ')');
    if (close == nullptr) return fail(fields, "unterminated timestamp");
    return fail(fields, "invalid timestamp",
                {stamp, static_cast<std::size_t>(close - stamp)});
  }

  // --- channel: up to the next space ----------------------------------------
  for (++p; p < end && is_space(*p); ++p) {
  }
  const char* const channel = p;
  while (p < end && *p != ' ') ++p;
  if (p == end) return fail(fields, "missing channel or frame field");
  fields.channel = {channel, static_cast<std::size_t>(p - channel)};
  for (++p; p < end && is_space(*p); ++p) {
  }

  // --- "ID#": candump prints 3 hex digits for standard IDs, 8 for extended -
  const char* const id_text = p;
  std::uint64_t raw = 0;
  std::uint64_t overflow = 0;
  for (; p < end; ++p) {
    const std::uint8_t digit = hex_value(*p);
    if ((digit & kNotHex) != 0) break;
    overflow |= raw >> 28;  // the shift would leave uint32
    raw = raw << 4 | digit;
  }
  if (p == end || *p != '#') {
    const char* const hash = find_char(id_text, end, '#');
    if (hash == nullptr) {
      return fail(fields, "missing '#' separator in frame field");
    }
    return fail(fields, "invalid identifier",
                {id_text, static_cast<std::size_t>(hash - id_text)});
  }
  const auto digits = static_cast<std::size_t>(p - id_text);
  if (digits == 0 || overflow != 0) {
    return fail(fields, "invalid identifier", {id_text, digits});
  }
  if (digits > 3) {
    if (raw > can::kMaxExtId) return fail(fields, "extended ID out of range");
    fields.id = can::CanId::extended(static_cast<std::uint32_t>(raw));
  } else {
    if (raw > can::kMaxStdId) return fail(fields, "standard ID out of range");
    fields.id = can::CanId::standard(static_cast<std::uint32_t>(raw));
  }
  ++p;

  // --- remote frame: "R" optionally followed by the requested DLC ----------
  if (p < end && (*p == 'R' || *p == 'r')) {
    fields.remote = true;
    if (++p == end) return fields;
    if (end - p != 1 || *p < '0' || *p > '9') {
      return fail(fields, "invalid remote frame DLC");
    }
    fields.remote_dlc = static_cast<std::uint8_t>(*p - '0');
    if (fields.remote_dlc > can::kMaxDataBytes) {
      return fail(fields, "remote DLC out of range");
    }
    return fields;
  }

  // --- data: up to 8 bytes of two hex digits each ---------------------------
  const auto nibbles = static_cast<std::size_t>(end - p);
  if (nibbles % 2 != 0) return fail(fields, "odd number of data nibbles");
  if (nibbles > 2 * can::kMaxDataBytes) {
    return fail(fields, "data field longer than 8 bytes");
  }
  std::uint8_t classes = 0;
  for (const char* q = p; q < end; ++q) classes |= hex_value(*q);
  if ((classes & kNotHex) != 0) {
    for (const char* q = p;; q += 2) {
      if (((hex_value(q[0]) | hex_value(q[1])) & kNotHex) != 0) {
        return fail(fields, "invalid data byte", {q, 2});
      }
    }
  }
  fields.data = {p, nibbles};
  return fields;
}

LogRecord parse_candump_line(std::string_view line) {
  const CandumpFields fields = scan_candump_line(line);
  if (fields.fault != nullptr) {
    throw ParseError(fault_message(fields));
  }
  return record_of(fields);
}

std::string to_candump_line(const LogRecord& record) {
  char ts[32];
  const double seconds = util::to_seconds(record.timestamp);
  std::snprintf(ts, sizeof ts, "(%.6f)", seconds);
  return std::string(ts) + " " + record.channel + " " +
         record.frame.to_string();
}

CandumpSource::CandumpSource(std::istream& in) : in_(&in) {}

CandumpSource::CandumpSource(const std::filesystem::path& path)
    : owned_(std::make_unique<std::ifstream>(path)), in_(owned_.get()) {
  if (!*in_) {
    throw std::runtime_error("cannot open trace file: " + path.string());
  }
}

bool CandumpSource::next_fields(CandumpFields& fields) {
  while (std::getline(*in_, line_)) {
    ++line_number_;
    fields = scan_candump_line(line_);
    if (fields.fault == nullptr) return true;
    if (!is_skipped(line_)) {
      throw ParseError(fault_message(fields), line_number_);
    }
  }
  return false;
}

std::optional<LogRecord> CandumpSource::next_record() {
  CandumpFields fields;
  if (!next_fields(fields)) return std::nullopt;
  return record_of(fields);
}

std::size_t CandumpSource::fill_ids(std::vector<can::TimedId>& out,
                                    std::size_t max) {
  std::size_t added = 0;
  CandumpFields fields;
  while (added < max && next_fields(fields)) {
    out.push_back(can::TimedId{fields.timestamp, fields.id});
    ++added;
  }
  return added;
}

Trace read_candump(std::istream& in) {
  return CandumpSource(in).drain_records();
}

void write_candump(std::ostream& out, const Trace& trace) {
  for (const LogRecord& record : trace) {
    out << to_candump_line(record) << '\n';
  }
}

}  // namespace canids::trace
