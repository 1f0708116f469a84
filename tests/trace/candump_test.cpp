#include "trace/candump.h"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/rng.h"

namespace canids::trace {
namespace {

TEST(CandumpParseTest, StandardDataFrame) {
  const LogRecord r =
      parse_candump_line("(1436509052.249713) can0 0D1#8080000000008059");
  EXPECT_EQ(r.timestamp, 1436509052249713000LL);
  EXPECT_EQ(r.channel, "can0");
  EXPECT_EQ(r.frame.id().raw(), 0x0D1u);
  EXPECT_FALSE(r.frame.id().is_extended());
  EXPECT_EQ(r.frame.dlc(), 8);
  EXPECT_EQ(r.frame.payload()[0], 0x80);
  EXPECT_EQ(r.frame.payload()[7], 0x59);
}

TEST(CandumpParseTest, ExtendedIdByDigitCount) {
  const LogRecord r = parse_candump_line("(1.0) can1 18DB33F1#0102");
  EXPECT_TRUE(r.frame.id().is_extended());
  EXPECT_EQ(r.frame.id().raw(), 0x18DB33F1u);
  EXPECT_EQ(r.channel, "can1");
}

TEST(CandumpParseTest, RemoteFrameWithDlc) {
  const LogRecord r = parse_candump_line("(2.5) can0 5E4#R2");
  EXPECT_TRUE(r.frame.is_remote());
  EXPECT_EQ(r.frame.dlc(), 2);
}

TEST(CandumpParseTest, RemoteFrameWithoutDlc) {
  const LogRecord r = parse_candump_line("(2.5) can0 5E4#R");
  EXPECT_TRUE(r.frame.is_remote());
  EXPECT_EQ(r.frame.dlc(), 0);
}

TEST(CandumpParseTest, EmptyDataFrame) {
  const LogRecord r = parse_candump_line("(0.1) vcan0 1FF#");
  EXPECT_FALSE(r.frame.is_remote());
  EXPECT_EQ(r.frame.dlc(), 0);
}

TEST(CandumpParseTest, ToleratesSurroundingWhitespace) {
  const LogRecord r = parse_candump_line("   (0.5) can0 123#AB   ");
  EXPECT_EQ(r.frame.id().raw(), 0x123u);
}

TEST(CandumpParseTest, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_candump_line(""), ParseError);
  EXPECT_THROW((void)parse_candump_line("no-parens can0 1#"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0 can0 1#"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(abc) can0 1#"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(-1.0) can0 1#"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0) can0"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 123"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 XYZ#00"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 123#0"), ParseError);
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 123#GG"), ParseError);
  EXPECT_THROW(
      (void)parse_candump_line("(1.0) can0 123#000102030405060708"),
      ParseError);  // 9 bytes
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 123#R9"), ParseError);
}

TEST(CandumpParseTest, RejectsOutOfRangeIds) {
  // 3 hex digits parse as standard, so 0x800 is out of range.
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 800#00"), ParseError);
  // More than 8 digits cannot happen; 8 digits above 0x1FFFFFFF rejected.
  EXPECT_THROW((void)parse_candump_line("(1.0) can0 FFFFFFFF#00"),
               ParseError);
}

// ---- pinned acceptance table ------------------------------------------------
//
// Each line's outcome as recorded from the multi-pass parser that
// scan_candump_line replaced: the same lines must be accepted, with the
// same (timestamp, id), and rejected with the same message.

constexpr bool kStandard = false;
constexpr bool kExtended = true;

struct Pinned {
  constexpr Pinned(const char* text, util::TimeNs ts, std::uint32_t raw,
                   bool ext)
      : line(text), timestamp(ts), raw_id(raw), extended(ext) {}
  constexpr Pinned(const char* text, const char* why)
      : line(text), message(why) {}

  std::string_view line;
  util::TimeNs timestamp = 0;
  std::uint32_t raw_id = 0;
  bool extended = false;
  const char* message = nullptr;  ///< nullptr: accepted

  [[nodiscard]] bool accepted() const { return message == nullptr; }
};

constexpr Pinned kPinned[] = {
    {"(1436509052.249713) can0 0D1#8080000000008059",
     1436509052249713000, 0xD1, kStandard},
    {"( 1.5 ) can0 123#00", 1500000000, 0x123, kStandard},
    {"(\t1.5\t) can0 123#00", 1500000000, 0x123, kStandard},
    {"(1.5)can0 123#00", 1500000000, 0x123, kStandard},
    {"  (1.5)   can0    123#00  ", 1500000000, 0x123, kStandard},
    {"(1.5) can0\t123#00", "missing channel or frame field"},
    {"(1.5)\tcan0 123#00", 1500000000, 0x123, kStandard},
    {"(1.5) can0 \t123#00", 1500000000, 0x123, kStandard},
    {"(1.5) can0\t123#00 x", "missing '#' separator in frame field"},
    {"(1.5) can0 123#00\r", 1500000000, 0x123, kStandard},
    {"(1.5) can0 123#00\r\n", 1500000000, 0x123, kStandard},
    {"(1.5) can0 1ABC#00", 1500000000, 0x1ABC, kExtended},
    {"(1.5) can0 000000123#00", 1500000000, 0x123, kExtended},
    {"(1.5) can0 0000000000000000123#00", 1500000000, 0x123, kExtended},
    {"(1.5) can0 0x1F#00", "invalid identifier '0x1F'"},
    {"(1.5) can0 1F#00", 1500000000, 0x1F, kStandard},
    {"(1.5) can0 123#R", 1500000000, 0x123, kStandard},
    {"(1.5) can0 123#r", 1500000000, 0x123, kStandard},
    {"(1.5) can0 123#R8", 1500000000, 0x123, kStandard},
    {"(1.5) can0 123#R9", "remote DLC out of range"},
    {"(1.5) can0 123#R10", "invalid remote frame DLC"},
    {"(1.5) can0 123#Rx", "invalid remote frame DLC"},
    {"(1.5) can0 123#0011223344556677", 1500000000, 0x123, kStandard},
    {"(1.5) can0 123#001122334455667788", "data field longer than 8 bytes"},
    {"(1.5) can0 123#001", "odd number of data nibbles"},
    {"(1.5) can0 123#0g", "invalid data byte '0g'"},
    {"(1.5) can0 123#0011 223", "invalid data byte ' 2'"},
    {"(1.5) can0 123#00 11", "odd number of data nibbles"},
    {"(1.5) can0 123#00#1", "invalid data byte '#1'"},
    {"(1.1234567891234) can0 123#00", 1123456789, 0x123, kStandard},
    {"(.5) can0 123#00", 500000000, 0x123, kStandard},
    {"(1.) can0 123#00", 1000000000, 0x123, kStandard},
    {"(.) can0 123#00", "invalid timestamp '.'"},
    {"() can0 123#00", "invalid timestamp ''"},
    {"(1.2.3) can0 123#00", "invalid timestamp '1.2.3'"},
    {"(1 .5) can0 123#00", "invalid timestamp '1 .5'"},
    {"(+1.5) can0 123#00", "invalid timestamp '+1.5'"},
    {"(-1.0) can0 123#00", "invalid timestamp '-1.0'"},
    {"(99999999999999999999.0) can0 123#00",
     "invalid timestamp '99999999999999999999.0'"},
    {"(922337203685477580) can0 123#00",
     "invalid timestamp '922337203685477580'"},
    {"(9223372036.854775807) can0 123#00",
     9223372036854775807, 0x123, kStandard},
    {"(9223372036.854775808) can0 123#00",
     "invalid timestamp '9223372036.854775808'"},
    {"(9223372037) can0 123#00", "invalid timestamp '9223372037'"},
    {"(1.5)  123#00", "missing channel or frame field"},
    {"(1.5) ", "missing channel or frame field"},
    {"(1.5) can0", "missing channel or frame field"},
    {"(1.5) can0 123", "missing '#' separator in frame field"},
    {"(1.5) can0 #00", "invalid identifier ''"},
    {"(1.5) can0 800#00", "standard ID out of range"},
    {"(1.5) can0 7FF#", 1500000000, 0x7FF, kStandard},
    {"(1.5) can0 20000000#00", "extended ID out of range"},
    {"(1.5) can0 1FFFFFFF#DEADBEEF", 1500000000, 0x1FFFFFFF, kExtended},
    {"(1.5) can0 100000000#00", "invalid identifier '100000000'"},
    {"(1.5) can0 12 3#00", "invalid identifier '12 3'"},
    {"(1.5) can0 XYZ 00", "missing '#' separator in frame field"},
    {"(1.5 can0 123#00", "unterminated timestamp"},
    {"(abc can0 123#00", "unterminated timestamp"},
    {"(1.5 can0) 123#00", "invalid timestamp '1.5 can0'"},
    {"(abc) can0 123#00", "invalid timestamp 'abc'"},
    {"1.5) can0 123#00", "expected '(timestamp)' prefix"},
    {"", "expected '(timestamp)' prefix"},
    {"   ", "expected '(timestamp)' prefix"},
    {"(1.5) can(0) 123#00", 1500000000, 0x123, kStandard},
    {"(1.5) can0 123#00 ", 1500000000, 0x123, kStandard},
    {"\v(1.5) can0 123#aBcD\f", 1500000000, 0x123, kStandard},
};

TEST(CandumpPinnedTest, ParseLineMatchesTable) {
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(std::string(pin.line));
    if (pin.accepted()) {
      const LogRecord record = parse_candump_line(pin.line);
      EXPECT_EQ(record.timestamp, pin.timestamp);
      EXPECT_EQ(record.frame.id().raw(), pin.raw_id);
      EXPECT_EQ(record.frame.id().is_extended(), pin.extended);
      continue;
    }
    try {
      (void)parse_candump_line(pin.line);
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), pin.message);
    }
  }
}

TEST(CandumpPinnedTest, ScannerMatchesTable) {
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(std::string(pin.line));
    const CandumpFields fields = scan_candump_line(pin.line);
    EXPECT_EQ(fields.fault == nullptr, pin.accepted());
    if (!pin.accepted()) continue;
    EXPECT_EQ(fields.timestamp, pin.timestamp);
    EXPECT_EQ(fields.id.raw(), pin.raw_id);
    EXPECT_EQ(fields.id.is_extended(), pin.extended);
  }
}

/// What file ingest must make of `lines` (joined by '\n'): the ids of the
/// accepted lines, and the errors of the rejected ones, each prefixed with
/// its 1-based line number. Blank and '#' lines are skipped.
struct Ingested {
  std::vector<can::TimedId> ids;
  std::vector<std::string> bad_lines;
};

Ingested expected_ingest(const std::vector<std::string>& lines) {
  Ingested expected;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view body = util::trim(lines[i]);
    if (body.empty() || body.front() == '#') continue;
    try {
      const LogRecord record = parse_candump_line(lines[i]);
      expected.ids.push_back(can::TimedId{record.timestamp, record.frame.id()});
    } catch (const ParseError& e) {
      expected.bad_lines.push_back("line " + std::to_string(i + 1) + ": " +
                                   e.what());
    }
  }
  return expected;
}

/// Read `lines` through CandumpSource::fill_ids in blocks of `block`,
/// resuming after every ParseError as the fleet engine does.
Ingested fill_ids_ingest(const std::vector<std::string>& lines,
                         std::size_t block) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  std::istringstream in(text);
  CandumpSource source(in);
  Ingested got;
  for (;;) {
    try {
      if (source.fill_ids(got.ids, block) == 0) break;
    } catch (const ParseError& e) {
      got.bad_lines.push_back(e.what());
    }
  }
  return got;
}

void expect_same_ingest(const Ingested& got, const Ingested& expected) {
  EXPECT_EQ(got.bad_lines, expected.bad_lines);
  ASSERT_EQ(got.ids.size(), expected.ids.size());
  for (std::size_t i = 0; i < got.ids.size(); ++i) {
    EXPECT_EQ(got.ids[i].timestamp, expected.ids[i].timestamp) << i;
    EXPECT_EQ(got.ids[i].id, expected.ids[i].id) << i;
  }
}

TEST(CandumpPinnedTest, FillIdsMatchesTable) {
  std::vector<std::string> lines;
  for (const Pinned& pin : kPinned) {
    if (pin.line.find('\n') == std::string_view::npos) {
      lines.emplace_back(pin.line);
    }
  }
  const Ingested expected = expected_ingest(lines);
  ASSERT_FALSE(expected.ids.empty());
  ASSERT_FALSE(expected.bad_lines.empty());
  for (const std::size_t block : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4096}}) {
    SCOPED_TRACE(block);
    expect_same_ingest(fill_ids_ingest(lines, block), expected);
  }
}

TEST(CandumpPinnedTest, FillIdsErrorCarriesLineNumberAndRecovers) {
  std::istringstream in(
      "(0.001) can0 0D1#80\n"
      "# comment\n"
      "(0.002) can0 0D2#8\n"
      "(0.003) can0 0D3#82\n");
  CandumpSource source(in);
  std::vector<can::TimedId> ids;
  try {
    (void)source.fill_ids(ids, 100);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "line 3: odd number of data nibbles");
  }
  ASSERT_EQ(ids.size(), 1u);  // decoded before the bad line
  EXPECT_EQ(source.fill_ids(ids, 100), 1u);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[1].id.raw(), 0x0D3u);
  EXPECT_EQ(ids[1].timestamp, 3 * util::kMillisecond);
  EXPECT_EQ(source.fill_ids(ids, 100), 0u);
}

/// One seeded mutant of `line`: 1-4 byte edits drawn mostly from the
/// characters the grammar gives meaning to. Never contains '\n'.
std::string mutate(std::string line, util::Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "0123456789abcdefABCDEFgGxX ()#.\t\r\v-+Rr:";
  const int edits = 1 + static_cast<int>(rng.below(4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = rng.below(line.size() + 1);
    char c = kAlphabet[rng.below(kAlphabet.size())];
    if (rng.uniform01() < 1.0 / 16) c = static_cast<char>(rng.below(256));
    if (c == '\n') c = '\0';
    switch (rng.below(5)) {
      case 0:
        if (at < line.size()) line[at] = c;
        break;
      case 1:
        line.insert(at, 1, c);
        break;
      case 2:
        if (at < line.size()) line.erase(at, 1 + rng.below(3));
        break;
      case 3:
        if (at < line.size()) {
          line.insert(at, line.substr(at, 1 + rng.below(6)));
        }
        break;
      default:
        line.resize(at);
        break;
    }
  }
  return line;
}

TEST(CandumpPinnedTest, MutantsAgreeOnBothPaths) {
  // Seeded and bounded: parse_candump_line and the id path (the scanner,
  // and CandumpSource::fill_ids over all mutants as one capture) must
  // agree on accept/reject and on (timestamp, id).
  util::Rng rng(20);
  std::vector<std::string> mutants;
  std::size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const Pinned& pin = kPinned[rng.below(std::size(kPinned))];
    std::string line =
        mutate(std::string(pin.line.substr(0, pin.line.find('\n'))), rng);
    const CandumpFields fields = scan_candump_line(line);
    try {
      const LogRecord record = parse_candump_line(line);
      ++accepted;
      ASSERT_EQ(fields.fault, nullptr) << line;
      ASSERT_EQ(fields.timestamp, record.timestamp) << line;
      ASSERT_EQ(fields.id, record.frame.id()) << line;
    } catch (const ParseError&) {
      ASSERT_NE(fields.fault, nullptr) << line;
    }
    mutants.push_back(std::move(line));
  }
  EXPECT_GT(accepted, 1000u);  // the loop must reach the accept paths too
  expect_same_ingest(fill_ids_ingest(mutants, 97), expected_ingest(mutants));
}

TEST(CandumpRoundTrip, RandomFramesSurviveFormatting) {
  util::Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    LogRecord original;
    original.timestamp =
        static_cast<util::TimeNs>(rng.below(2'000'000'000)) * 1000;
    original.channel = "can0";
    if (rng.uniform01() < 0.15) {
      original.frame = can::Frame::remote_frame(
          can::CanId::standard(static_cast<std::uint32_t>(rng.below(0x800))),
          static_cast<std::uint8_t>(rng.below(9)));
    } else {
      std::vector<std::uint8_t> payload(rng.below(9));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
      const bool extended = rng.uniform01() < 0.3;
      const can::CanId id =
          extended ? can::CanId::extended(static_cast<std::uint32_t>(
                         rng.below(can::kMaxExtId + 1ULL)))
                   : can::CanId::standard(static_cast<std::uint32_t>(
                         rng.below(0x800)));
      original.frame = can::Frame::data_frame(id, payload);
    }
    const LogRecord reparsed = parse_candump_line(to_candump_line(original));
    EXPECT_EQ(reparsed.frame, original.frame);
    EXPECT_EQ(reparsed.channel, original.channel);
    // The writer prints 6 fractional digits, so timestamps round-trip
    // exactly at microsecond granularity (the generator uses whole us).
    EXPECT_EQ(reparsed.timestamp, original.timestamp);
  }
}

TEST(CandumpStreamTest, SkipsBlanksAndComments) {
  std::istringstream in(
      "# capture start\n"
      "\n"
      "(1.0) can0 100#11\n"
      "   \n"
      "(2.0) can0 200#22\n");
  const Trace trace = read_candump(in);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].frame.id().raw(), 0x100u);
  EXPECT_EQ(trace[1].frame.id().raw(), 0x200u);
}

TEST(CandumpStreamTest, ErrorCarriesLineNumber) {
  std::istringstream in(
      "(1.0) can0 100#11\n"
      "broken line\n");
  try {
    (void)read_candump(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("line 2: ", 0), 0u) << e.what();
  }
}

TEST(CandumpStreamTest, WriteThenReadIdentity) {
  Trace trace;
  for (std::uint32_t i = 0; i < 20; ++i) {
    LogRecord r;
    r.timestamp = static_cast<util::TimeNs>(i) * util::kMillisecond;
    r.channel = "can0";
    const std::vector<std::uint8_t> payload = {static_cast<std::uint8_t>(i)};
    r.frame = can::Frame::data_frame(can::CanId::standard(0x100 + i), payload);
    trace.push_back(r);
  }
  std::stringstream io;
  write_candump(io, trace);
  const Trace reread = read_candump(io);
  ASSERT_EQ(reread.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(reread[i].frame, trace[i].frame);
  }
}

}  // namespace
}  // namespace canids::trace
