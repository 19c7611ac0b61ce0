// The rtp::fuzz differential-oracle battery as an always-on ctest suite:
// every oracle that the fuzz/fuzz_differential harness drives from random
// bytes runs here from fixed seeds, so plain CI catches disagreements
// between the production kernels and their reference implementations
// without any fuzzing budget. Lives in the exec test binary (label
// `exec`): the parallel-vs-serial oracles exercise jobs=8, which the TSan
// leg must see.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "fuzz/generators.h"
#include "fuzz/oracles.h"
#include "fuzz/small_docs.h"
#include "pattern/evaluator.h"
#include "workload/random_pattern.h"
#include "xml/document.h"

namespace rtp {
namespace {

std::vector<xml::Document> MakeDocs(Alphabet* alphabet, uint64_t seed,
                                    int count, uint32_t max_nodes,
                                    uint32_t num_labels = 3) {
  std::vector<xml::Document> docs;
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    workload::RandomTreeParams params;
    params.seed = rng.Next();
    params.num_labels = num_labels;
    params.max_nodes = max_nodes;
    docs.push_back(workload::GenerateRandomTree(alphabet, params));
  }
  return docs;
}

std::vector<const xml::Document*> Ptrs(const std::vector<xml::Document>& docs) {
  std::vector<const xml::Document*> ptrs;
  for (const xml::Document& doc : docs) ptrs.push_back(&doc);
  return ptrs;
}

// The enumerator's tree count is sum over m <= max_nodes of
// Catalan(m) * labels^m (ordered forests of m labeled nodes).
TEST(SmallDocsTest, EnumeratesEveryOrderedTreeOnce) {
  Alphabet alphabet;
  fuzz::SmallDocParams params;
  params.labels = {"a"};
  params.max_nodes = 2;
  size_t count = fuzz::ForEachSmallDocument(
      &alphabet, params, [](const xml::Document&) { return true; });
  EXPECT_EQ(count, 4u);  // 1 + 1 + 2

  params.labels = {"a", "b"};
  params.max_nodes = 3;
  size_t seen_max = 0;
  count = fuzz::ForEachSmallDocument(
      &alphabet, params, [&](const xml::Document& doc) {
        seen_max = std::max(seen_max, size_t{doc.LiveNodeCount()});
        return true;
      });
  EXPECT_EQ(count, 51u);  // 1 + 2 + 2*4 + 5*8
  EXPECT_EQ(seen_max, 4u);  // root + max_nodes
}

TEST(SmallDocsTest, StopsWhenCallbackReturnsFalse) {
  Alphabet alphabet;
  fuzz::SmallDocParams params;
  params.labels = {"a", "b"};
  params.max_nodes = 3;
  size_t calls = 0;
  fuzz::ForEachSmallDocument(&alphabet, params, [&](const xml::Document&) {
    return ++calls < 10;
  });
  EXPECT_EQ(calls, 10u);
}

class OracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleTest, DenseMatchesReferenceEvaluation) {
  Alphabet alphabet;
  Rng rng(GetParam());
  fuzz::InstanceGenParams instance;
  std::vector<xml::Document> docs = MakeDocs(&alphabet, GetParam(), 4, 12);
  for (int i = 0; i < 5; ++i) {
    pattern::TreePattern pattern =
        fuzz::GeneratePatternInstance(&alphabet, &rng, instance);
    for (const xml::Document& doc : docs) {
      Status status = fuzz::CheckDenseVsReference(pattern, doc);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
}

// Region tables vs the literal definitions. The documents use a label
// ("l3") that no pattern names, and text leaves that few patterns read, so
// some regions are smaller than the tree; a `_` edge reads every label, so
// its region is the whole tree. Both kinds must occur, or the oracle could
// pass without checking one of them.
TEST_P(OracleTest, TablesMatchDefinition) {
  Alphabet alphabet;
  Rng rng(GetParam() + 500);
  fuzz::InstanceGenParams instance;
  std::vector<xml::Document> docs =
      MakeDocs(&alphabet, GetParam(), 4, 14, instance.num_labels + 1);
  int smaller_region = 0;
  int wildcard_whole_tree = 0;
  for (int i = 0; i < 10; ++i) {
    pattern::TreePattern pattern =
        fuzz::GeneratePatternInstance(&alphabet, &rng, instance);
    bool wildcard = false;
    for (pattern::PatternNodeId w = 1; w < pattern.NumNodes(); ++w) {
      wildcard |= pattern.edge(w).ToString(alphabet).find('_') !=
                  std::string::npos;
    }
    for (const xml::Document& doc : docs) {
      Status status = fuzz::CheckTablesVsDefinition(pattern, doc);
      EXPECT_TRUE(status.ok()) << status.ToString();
      const size_t rows = pattern::MatchTables::Build(pattern, doc).NumRows();
      if (rows < doc.LiveNodeCount()) ++smaller_region;
      if (wildcard && rows == doc.LiveNodeCount()) ++wildcard_whole_tree;
    }
  }
  EXPECT_GT(smaller_region, 0);
  EXPECT_GT(wildcard_whole_tree, 0);
}

TEST_P(OracleTest, BatchEvaluationMatchesSerial) {
  Alphabet alphabet;
  Rng rng(GetParam() + 100);
  fuzz::InstanceGenParams instance;
  std::vector<xml::Document> docs = MakeDocs(&alphabet, GetParam(), 6, 14);
  pattern::TreePattern pattern =
      fuzz::GeneratePatternInstance(&alphabet, &rng, instance);
  for (int jobs : {1, 8}) {
    Status status = fuzz::CheckEvalParallelVsSerial(pattern, Ptrs(docs), jobs);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST_P(OracleTest, HashedFdCheckerMatchesNaiveQuadratic) {
  Alphabet alphabet;
  Rng rng(GetParam() + 200);
  fuzz::InstanceGenParams instance;
  std::vector<xml::Document> docs = MakeDocs(&alphabet, GetParam(), 4, 12);
  for (int i = 0; i < 5; ++i) {
    fd::FunctionalDependency fd =
        fuzz::GenerateFdInstance(&alphabet, &rng, instance);
    for (const xml::Document& doc : docs) {
      Status status = fuzz::CheckFdVsNaive(fd, doc);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    for (int jobs : {1, 8}) {
      Status status = fuzz::CheckFdParallelVsSerial(fd, Ptrs(docs), jobs);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
}

TEST_P(OracleTest, CriterionMatchesBruteForceEnumeration) {
  Alphabet alphabet;
  Rng rng(GetParam() + 300);
  fuzz::InstanceGenParams instance;
  fuzz::SmallDocParams small_docs;
  small_docs.labels = {"l0", "l1", "l2", "#text"};
  small_docs.max_nodes = 4;
  for (int i = 0; i < 3; ++i) {
    fd::FunctionalDependency fd =
        fuzz::GenerateFdInstance(&alphabet, &rng, instance);
    update::UpdateClass update =
        fuzz::GenerateUpdateClassInstance(&alphabet, &rng, instance);
    Status status = fuzz::CheckCriterionVsBruteForce(
        fd, update, /*schema=*/nullptr, &alphabet, small_docs);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// Worklist emptiness vs the round-based reference on random hedge
// automata, the only instances with live `otherwise` edges. They are tiny,
// so each seed checks a few hundred.
TEST_P(OracleTest, EmptinessMatchesReferenceOnRandomAutomata) {
  Alphabet alphabet;
  Rng rng(GetParam() + 400);
  for (int i = 0; i < 300; ++i) {
    automata::HedgeAutomaton automaton =
        fuzz::GenerateHedgeAutomatonInstance(&alphabet, &rng);
    Status status = fuzz::CheckEmptinessVsReference(automaton, &alphabet);
    ASSERT_TRUE(status.ok()) << "automaton " << i << ": " << status.ToString();
  }
}

// The snapshot's rank column against Document::Visit, through random
// streams of structural updates; each seed checks 40 streams.
TEST_P(OracleTest, RankColumnFollowsStructuralUpdates) {
  for (uint64_t i = 0; i < 40; ++i) {
    Status status = fuzz::CheckRankColumn(GetParam() * 1000 + i);
    ASSERT_TRUE(status.ok()) << "stream " << i << ": " << status.ToString();
  }
}

// The served eval line against the JsonValue path; half the answers
// repeat nodes, so render-once copies bytes within the line. Each seed
// checks 20 answers.
TEST_P(OracleTest, EvalResponseBytesMatchJsonPath) {
  for (uint64_t i = 0; i < 20; ++i) {
    Status status = fuzz::CheckEvalResponseBytes(GetParam() * 1000 + i);
    ASSERT_TRUE(status.ok()) << "answer " << i << ": " << status.ToString();
  }
}

// The acceptance bar for this battery: the full bundle passes for several
// distinct seeds, exactly as fuzz/fuzz_differential runs it.
TEST_P(OracleTest, FullBatteryPasses) {
  Status status = fuzz::RunOracleBattery(GetParam());
  EXPECT_TRUE(status.ok()) << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleTest,
                         ::testing::Values<uint64_t>(1, 2, 3, 41, 2010));

}  // namespace
}  // namespace rtp
