// Robustness fuzzing of every textual front end, driven by the seeded
// rtp::fuzz generators: byte soup and mutated valid inputs must produce
// Status errors, never crashes, and generator output — valid by
// construction — must actually parse. The same generators feed the fuzz/
// harnesses; this test is the cheap always-on subset.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "fd/path_fd.h"
#include "fuzz/generators.h"
#include "pattern/pattern_parser.h"
#include "regex/regex.h"
#include "schema/schema.h"
#include "xml/xml_io.h"
#include "xpath/xpath.h"

namespace rtp {
namespace {

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, AllParsersSurviveGarbage) {
  Rng rng(GetParam());
  for (int i = 0; i < 40; ++i) {
    Alphabet alphabet;
    std::string input = fuzz::GenerateRandomBytes(&rng, 60);
    // Each parser either errors out or produces a usable object.
    auto re = regex::Regex::Parse(&alphabet, input);
    if (re.ok()) (void)re->IsProper();
    auto pat = pattern::ParsePattern(&alphabet, input);
    if (pat.ok()) (void)pat->pattern.Validate();
    auto sch = schema::Schema::Parse(&alphabet, input);
    auto pfd = fd::ParsePathFd(input);
    auto xp = xpath::CompileXPath(&alphabet, input);
    auto xml = xml::ParseXml(&alphabet, input);
    if (xml.ok()) (void)xml::WriteXml(*xml);
    (void)sch;
    (void)pfd;
    (void)xp;
  }
}

TEST_P(ParserFuzzTest, GeneratedInputsParse) {
  Rng rng(GetParam() * 31 + 5);
  fuzz::TextGenParams params;
  for (int i = 0; i < 25; ++i) {
    Alphabet alphabet;

    std::string regex_text = fuzz::GenerateRegexText(&rng, params);
    auto re = regex::Regex::Parse(&alphabet, regex_text);
    ASSERT_TRUE(re.ok()) << regex_text << "\n" << re.status().ToString();

    std::string pattern_text =
        fuzz::GeneratePatternDslText(&rng, params, /*with_context=*/i % 2);
    auto pat = pattern::ParsePattern(&alphabet, pattern_text);
    ASSERT_TRUE(pat.ok()) << pattern_text << "\n" << pat.status().ToString();
    EXPECT_TRUE(pat->pattern.Validate().ok()) << pattern_text;
    EXPECT_FALSE(pat->pattern.selected().empty()) << pattern_text;
    if (i % 2) EXPECT_TRUE(pat->context.has_value()) << pattern_text;

    std::string schema_text = fuzz::GenerateSchemaDslText(&rng, params);
    auto sch = schema::Schema::Parse(&alphabet, schema_text);
    ASSERT_TRUE(sch.ok()) << schema_text << "\n" << sch.status().ToString();

    std::string xml_text = fuzz::GenerateXmlText(&rng, params);
    auto xml = xml::ParseXml(&alphabet, xml_text);
    ASSERT_TRUE(xml.ok()) << xml_text << "\n" << xml.status().ToString();

    std::string path_fd_text = fuzz::GeneratePathFdText(&rng, params);
    auto pfd = fd::ParsePathFd(path_fd_text);
    ASSERT_TRUE(pfd.ok()) << path_fd_text << "\n" << pfd.status().ToString();
  }
}

TEST_P(ParserFuzzTest, MutatedValidInputsSurvive) {
  Rng rng(GetParam() + 7777);
  fuzz::TextGenParams params;
  for (int i = 0; i < 25; ++i) {
    Alphabet alphabet;
    (void)pattern::ParsePattern(
        &alphabet,
        fuzz::MutateBytes(fuzz::GeneratePatternDslText(&rng, params), &rng));
    (void)schema::Schema::Parse(
        &alphabet,
        fuzz::MutateBytes(fuzz::GenerateSchemaDslText(&rng, params), &rng));
    (void)xml::ParseXml(
        &alphabet,
        fuzz::MutateBytes(fuzz::GenerateXmlText(&rng, params), &rng));
    (void)fd::ParsePathFd(
        fuzz::MutateBytes(fuzz::GeneratePathFdText(&rng, params), &rng));
    auto re = regex::Regex::Parse(
        &alphabet,
        fuzz::MutateBytes(fuzz::GenerateRegexText(&rng, params), &rng));
    if (re.ok()) (void)re->IsProper();
    (void)xpath::CompileXPath(&alphabet, "/a/b[c]//d | //e/@f");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace rtp
