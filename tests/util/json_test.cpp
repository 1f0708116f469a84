#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace canids::util {
namespace {

using Type = JsonValue::Type;

JsonValue parse(std::string_view text) { return parse_json(text, "test"); }

TEST(JsonReaderTest, ParsesEveryLiteral) {
  EXPECT_EQ(parse("null").type, Type::kNull);
  const JsonValue yes = parse("true");
  EXPECT_EQ(yes.type, Type::kBool);
  EXPECT_TRUE(yes.boolean);
  const JsonValue no = parse("false");
  EXPECT_EQ(no.type, Type::kBool);
  EXPECT_FALSE(no.boolean);
  const JsonValue number = parse("-12.5e1");
  EXPECT_EQ(number.type, Type::kNumber);
  EXPECT_EQ(number.text, "-12.5e1");
  EXPECT_EQ(number.get<double>(), -125.0);
  const JsonValue string = parse("\"a\\\"b\"");
  EXPECT_EQ(string.type, Type::kString);
  EXPECT_EQ(string.text, "a\"b");
  for (const char* bad : {"nul", "tru", "False", "nan", "Infinity", "'x'"}) {
    EXPECT_THROW((void)parse(bad), JsonError) << bad;
  }
}

TEST(JsonReaderTest, ObjectMembersKeepDocumentOrderAndDuplicates) {
  const JsonValue v =
      parse(" {\"b\": [1, {}], \"a\": null,\n\"b\": \"x\"}\r\n\t");
  ASSERT_EQ(v.type, Type::kObject);
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "b");
  EXPECT_EQ(v.members[0].second.type, Type::kArray);
  EXPECT_EQ(v.members[0].second.items.size(), 2u);
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_EQ(v.members[2].second.text, "x");
  EXPECT_EQ(v.members[2].second.offset, 32u);
}

TEST(JsonReaderTest, NumbersFollowRfc8259) {
  for (const char* good : {"0", "-0", "1e+20", "0.5", "-1.25E-3", "10"}) {
    EXPECT_EQ(parse(good).text, good);
  }
  for (const char* bad : {"+1", ".5", "01", "-01", "1.", "-", "1e", "1e+",
                          "0x10", "1.2.3", "- 1"}) {
    EXPECT_THROW((void)parse(bad), JsonError) << bad;
  }
}

TEST(JsonValueTest, IntegerConversionIsExactOrAbsent) {
  EXPECT_EQ(parse("9223372036854775807").get<std::int64_t>(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse("-9223372036854775808").get<std::int64_t>(),
            std::numeric_limits<std::int64_t>::min());
  // A nanosecond timestamp above 2^53 that a double would round.
  EXPECT_EQ(parse("1700000000123456789").get<std::int64_t>(),
            std::int64_t{1700000000123456789});
  EXPECT_EQ(parse("9223372036854775808").get<std::int64_t>(),
            std::nullopt);
  EXPECT_EQ(parse("1e3").get<std::int64_t>(), std::nullopt);
  EXPECT_EQ(parse("1.0").get<std::int64_t>(), std::nullopt);
  EXPECT_EQ(parse("-1").get<std::uint64_t>(), std::nullopt);
  EXPECT_EQ(parse("4294967296").get<std::uint32_t>(), std::nullopt);
  EXPECT_EQ(parse("\"1\"").get<int>(), std::nullopt);
  EXPECT_EQ(parse("1e400").get<double>(), std::nullopt);
  EXPECT_EQ(parse("1e3").get<double>(), 1000.0);
}

TEST(JsonValueTest, GetConvertsOnlyMatchingTypes) {
  EXPECT_EQ(parse("\"1\"").get<std::string>(), "1");
  EXPECT_EQ(parse("1").get<std::string>(), std::nullopt);
  EXPECT_EQ(parse("true").get<bool>(), true);
  EXPECT_EQ(parse("1").get<bool>(), std::nullopt);
  EXPECT_EQ(parse("[3, 1, 2]").get<std::vector<int>>(),
            (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(parse("[]").get<std::vector<std::string>>(),
            std::vector<std::string>{});
  EXPECT_EQ(parse("[1, \"2\"]").get<std::vector<int>>(), std::nullopt);
  EXPECT_EQ(parse("{}").get<std::vector<int>>(), std::nullopt);
}

TEST(JsonReaderTest, DecodesEscapesToUtf8) {
  EXPECT_EQ(parse("\"\\b\\f\\n\\r\\t\\/\\\\\\\"\"").text,
            "\b\f\n\r\t/\\\"");
  EXPECT_EQ(parse("\"\\u0041\"").text, "A");
  EXPECT_EQ(parse("\"\\u00e9\"").text, "\xC3\xA9");
  EXPECT_EQ(parse("\"\\u20AC\"").text, "\xE2\x82\xAC");
  EXPECT_EQ(parse("\"\\uD83D\\uDE00\"").text, "\xF0\x9F\x98\x80");
  EXPECT_EQ(parse("\"caf\xC3\xA9\"").text, "caf\xC3\xA9");
  for (const char* bad : {"\"\\uD800\"", "\"\\uDC00\"", "\"\\uD800\\u0041\"",
                          "\"\\u12\"", "\"\\u12G4\"", "\"\\x\"", "\"\t\"",
                          "\"abc"}) {
    EXPECT_THROW((void)parse(bad), JsonError) << bad;
  }
}

TEST(JsonReaderTest, AcceptsOnlyTheFourWhitespaceCharacters) {
  EXPECT_EQ(parse(" \t\r\n1 \t\r\n").text, "1");
  EXPECT_THROW((void)parse("\v1"), JsonError);
  EXPECT_THROW((void)parse("1\f"), JsonError);
  EXPECT_THROW((void)parse("[1,\v2]"), JsonError);
}

TEST(JsonReaderTest, BoundsNestingDepth) {
  const auto nested = [](int levels) {
    return std::string(static_cast<std::size_t>(levels), '[') +
           std::string(static_cast<std::size_t>(levels), ']');
  };
  EXPECT_EQ(parse(nested(kMaxJsonDepth)).type, Type::kArray);
  EXPECT_THROW((void)parse(nested(kMaxJsonDepth + 1)), JsonDepthError);
  // The enclosing object is level 1.
  EXPECT_EQ(parse("{\"k\": " + nested(kMaxJsonDepth - 1) + "}").type,
            Type::kObject);
  EXPECT_THROW((void)parse("{\"k\": " + nested(kMaxJsonDepth) + "}"),
               JsonDepthError);
  try {
    (void)parse(std::string(200'000, '['));
    FAIL() << "expected JsonDepthError";
  } catch (const JsonDepthError& e) {
    EXPECT_STREQ(e.what(),
                 "test: nesting deeper than 64 levels (at offset 64)");
  }
}

TEST(JsonReaderTest, RejectsTrailingGarbageAndNamesTheOffset) {
  for (const char* bad : {"{} x", "1 2", "[1]]", "\"a\"\"b\"", "", "  ",
                          "[1,]", "{\"a\":1,}", "{\"a\" 1}", "{1: 2}"}) {
    EXPECT_THROW((void)parse(bad), JsonError) << bad;
  }
  try {
    (void)parse("[1] x");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_STREQ(e.what(),
                 "test: trailing characters after JSON value (at offset 4)");
  }
}

TEST(JsonReaderTest, WriterRoundTripsEveryAsciiByte) {
  for (int byte = 0; byte < 0x80; ++byte) {
    const std::string original(1, static_cast<char>(byte));
    EXPECT_EQ(parse(json_string(original)).text, original) << byte;
  }
  std::string all;
  for (int byte = 0; byte < 0x80; ++byte) {
    all.push_back(static_cast<char>(byte));
  }
  EXPECT_EQ(parse(json_string(all)).text, all);
}

}  // namespace
}  // namespace canids::util
