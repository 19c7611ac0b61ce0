// Randomized properties of the word-automata substrate: the DFA algebra
// is validated against direct membership on sampled words.

#include <gtest/gtest.h>

#include <random>

#include "regex/regex.h"
#include "workload/random_pattern.h"

namespace rtp::regex {
namespace {

// Samples words over labels l0..l<k-1> (including words outside both
// languages and the empty word).
std::vector<std::vector<LabelId>> SampleWords(Alphabet* alphabet,
                                              uint32_t num_labels,
                                              uint64_t seed, int count,
                                              size_t max_len = 6) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<LabelId>> words;
  words.push_back({});  // empty word
  for (int i = 0; i < count; ++i) {
    size_t len = rng() % (max_len + 1);
    std::vector<LabelId> w;
    for (size_t j = 0; j < len; ++j) {
      w.push_back(alphabet->Intern("l" + std::to_string(rng() % num_labels)));
    }
    words.push_back(std::move(w));
  }
  return words;
}

class RegexAlgebraTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegexAlgebraTest, BooleanOperationsMatchMembership) {
  uint64_t seed = GetParam();
  Alphabet alphabet;
  workload::RandomPatternParams params;
  params.num_labels = 3;
  params.max_regex_nodes = 7;

  RegexAst ast_a = workload::GenerateRandomProperRegex(&alphabet, params, seed);
  RegexAst ast_b =
      workload::GenerateRandomProperRegex(&alphabet, params, seed + 9999);
  Dfa a = Dfa::FromAst(*ast_a);
  Dfa b = Dfa::FromAst(*ast_b);

  Dfa inter = Dfa::Intersection(a, b);
  Dfa uni = Dfa::UnionOf(a, b);
  Dfa diff = Dfa::Difference(a, b);
  Dfa comp = a.Complement();
  Dfa min_a = a.Minimize();

  for (const auto& w : SampleWords(&alphabet, params.num_labels, seed, 60)) {
    bool in_a = a.Accepts(w);
    bool in_b = b.Accepts(w);
    EXPECT_EQ(inter.Accepts(w), in_a && in_b);
    EXPECT_EQ(uni.Accepts(w), in_a || in_b);
    EXPECT_EQ(diff.Accepts(w), in_a && !in_b);
    EXPECT_EQ(comp.Accepts(w), !in_a);
    EXPECT_EQ(min_a.Accepts(w), in_a);
  }
}

TEST_P(RegexAlgebraTest, InclusionConsistentWithSampledWords) {
  uint64_t seed = GetParam();
  Alphabet alphabet;
  workload::RandomPatternParams params;
  params.num_labels = 2;
  params.max_regex_nodes = 6;

  RegexAst ast_a = workload::GenerateRandomProperRegex(&alphabet, params, seed * 3);
  RegexAst ast_b =
      workload::GenerateRandomProperRegex(&alphabet, params, seed * 3 + 1);
  Dfa a = Dfa::FromAst(*ast_a);
  Dfa b = Dfa::FromAst(*ast_b);

  if (a.IsSubsetOf(b)) {
    for (const auto& w : SampleWords(&alphabet, params.num_labels, seed, 80)) {
      EXPECT_TRUE(!a.Accepts(w) || b.Accepts(w))
          << "inclusion claimed but a word of L(a) is outside L(b)";
    }
  } else {
    // The difference has a witness, and it separates the languages.
    Dfa diff = Dfa::Difference(a, b);
    auto witness = diff.ShortestWord(&alphabet);
    ASSERT_TRUE(witness.has_value());
    EXPECT_TRUE(a.Accepts(*witness));
    EXPECT_FALSE(b.Accepts(*witness));
  }
}

TEST_P(RegexAlgebraTest, MinimizeIsIdempotentAndCanonicalInSize) {
  uint64_t seed = GetParam();
  Alphabet alphabet;
  workload::RandomPatternParams params;
  params.num_labels = 3;
  params.max_regex_nodes = 7;
  RegexAst ast = workload::GenerateRandomProperRegex(&alphabet, params, seed * 17);
  Dfa dfa = Dfa::FromAst(*ast);
  Dfa min1 = dfa.Minimize();
  Dfa min2 = min1.Minimize();
  EXPECT_EQ(min1.NumStates(), min2.NumStates());
  EXPECT_TRUE(min1.IsEquivalentTo(dfa));
  EXPECT_LE(min1.NumStates(), dfa.NumStates());
}

TEST_P(RegexAlgebraTest, ShortestWordIsAcceptedAndMinimal) {
  uint64_t seed = GetParam();
  Alphabet alphabet;
  workload::RandomPatternParams params;
  params.num_labels = 2;
  params.max_regex_nodes = 6;
  RegexAst ast = workload::GenerateRandomProperRegex(&alphabet, params, seed * 31);
  Dfa dfa = Dfa::FromAst(*ast);
  auto word = dfa.ShortestWord(&alphabet);
  ASSERT_TRUE(word.has_value());  // proper regexes have non-empty languages
  EXPECT_TRUE(dfa.Accepts(*word));
  EXPECT_GE(word->size(), 1u);  // proper: empty word not accepted
  // No sampled accepted word is shorter.
  for (const auto& w : SampleWords(&alphabet, params.num_labels, seed, 60)) {
    if (dfa.Accepts(w)) {
      EXPECT_LE(word->size(), w.size());
    }
  }
}

TEST_P(RegexAlgebraTest, ToStringRoundTripPreservesLanguage) {
  uint64_t seed = GetParam();
  Alphabet alphabet;
  workload::RandomPatternParams params;
  params.num_labels = 3;
  params.max_regex_nodes = 7;
  RegexAst ast = workload::GenerateRandomProperRegex(&alphabet, params, seed * 13);
  std::string text = ToString(*ast, alphabet);
  auto reparsed = ParseRegex(&alphabet, text);
  ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status().ToString();
  EXPECT_TRUE(Dfa::FromAst(*ast).IsEquivalentTo(Dfa::FromAst(**reparsed)))
      << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexAlgebraTest,
                         ::testing::Range<uint64_t>(1, 81));

}  // namespace
}  // namespace rtp::regex
