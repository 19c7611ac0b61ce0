// The wire's JSON value and the shared string escaper: whatever
// AppendJsonString writes, JsonValue::Parse reads back byte for byte, and
// Parse(Serialize(v)) == v.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/json_string.h"
#include "common/rng.h"
#include "fuzz/generators.h"
#include "serve/json.h"

namespace rtp::serve {
namespace {

// Parses AppendJsonString's literal for `s` and expects `s` back.
void ExpectStringRoundTrips(std::string_view s, const std::string& what) {
  std::string literal;
  AppendJsonString(&literal, s);
  auto parsed = JsonValue::Parse(literal);
  ASSERT_TRUE(parsed.ok()) << what << ": " << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_string()) << what;
  EXPECT_EQ(parsed->string_value(), s) << what;
}

// Each byte alone, and at every offset of a plain window wider than the
// eight-byte words FindJsonEscape scans.
TEST(JsonStringTest, EverySingleByteRoundTrips) {
  for (int b = 0; b < 256; ++b) {
    const char byte = static_cast<char>(b);
    const bool escaped = b < 0x20 || byte == '"' || byte == '\\';
    ExpectStringRoundTrips(std::string(1, byte), "byte " + std::to_string(b));
    for (size_t at = 0; at < 20; ++at) {
      std::string s(20, 'p');
      s[at] = byte;
      EXPECT_EQ(FindJsonEscape(s, 0), escaped ? at : s.size())
          << "byte " << b << " at " << at;
      ExpectStringRoundTrips(s, "byte " + std::to_string(b) + " at " +
                                    std::to_string(at));
    }
  }
}

// Long plain runs between escapes, one of them longer than 64 KiB, inside
// strings, array items and object keys alike.
TEST(JsonStringTest, EscapeClassMixesRoundTrip) {
  Rng rng(2010);
  for (int i = 0; i < 200; ++i) {
    const size_t long_run = i % 50 == 0 ? 70'000 : rng.Below(400);
    std::string s = fuzz::GenerateEscapeClassString(&rng, long_run);
    ExpectStringRoundTrips(s, "string " + std::to_string(i));

    JsonValue v = JsonValue::Object();
    v.Add(s, JsonValue::Array().Push(JsonValue::String(s)));
    auto reparsed = JsonValue::Parse(v.Serialize());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_TRUE(*reparsed == v) << "value " << i;
  }
}

TEST(JsonValueTest, RawIsWrittenVerbatim) {
  JsonValue v = JsonValue::Object();
  v.Add("count", JsonValue::Int(2));
  v.Add("tuples", JsonValue::Raw("[[\"<a/>\"],[\"\\u0001\"]]"));
  v.Add("after", JsonValue::Bool(true));
  EXPECT_EQ(v.Serialize(),
            "{\"count\":2,\"tuples\":[[\"<a/>\"],[\"\\u0001\"]],"
            "\"after\":true}");
}

// An infinity has no JSON spelling, so a literal beyond the double range
// is rejected instead of coming back from Serialize as null.
TEST(JsonValueTest, NumberBeyondTheDoubleRangeIsAParseError) {
  for (const char* text : {"1e999", "-1e999", "[1,2e400]"}) {
    auto parsed = JsonValue::Parse(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << text;
  }
  auto large = JsonValue::Parse("1e300");
  ASSERT_TRUE(large.ok());
  EXPECT_TRUE(*JsonValue::Parse(large->Serialize()) == *large);
}

// The string scanner reads runs of plain bytes at once; its errors and
// their offsets are those of the byte-at-a-time scanner.
TEST(JsonValueTest, StringScannerErrorsKeepTheirOffsets) {
  EXPECT_EQ(JsonValue::Parse("\"abc\x01xyz\"").status().message(),
            "json: unescaped control character in string at offset 4");
  EXPECT_EQ(JsonValue::Parse("\"abcdef").status().message(),
            "json: unterminated string at offset 7");
  EXPECT_EQ(JsonValue::Parse("\"ab\\qcd\"").status().message(),
            "json: invalid escape character at offset 5");
}

}  // namespace
}  // namespace rtp::serve
