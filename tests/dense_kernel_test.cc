// Unit tests for the dense hot-path kernel: DenseDfa flat tables,
// DocIndex snapshots, minimal-edge-DFA enforcement at pattern compile
// time, and the TraceOf output ordering pin. The cross-evaluator
// differential battery lives in parallel_differential_test.cc.

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "fd/functional_dependency.h"
#include "fd/path_fd.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "regex/dense_dfa.h"
#include "regex/regex.h"
#include "workload/paper_patterns.h"
#include "xml/doc_index.h"
#include "xml/document.h"
#include "xpath/xpath.h"

namespace rtp {
namespace {

// ---------------------------------------------------------------------------
// DenseDfa: the flat table is a faithful copy of the source Dfa.

TEST(DenseDfaTest, AgreesWithSourceDfaOnEveryStateAndLabel) {
  Alphabet alphabet;
  for (const char* text : {"a", "a/b*/c", "(a|b)*/c", "a/(b/c)*/(d|a)"}) {
    auto regex = regex::Regex::Parse(&alphabet, text);
    ASSERT_TRUE(regex.ok()) << text;
    const regex::Dfa& dfa = regex->dfa();
    const regex::DenseDfa& dense = regex->dense_dfa();
    ASSERT_EQ(dense.NumStates(), dfa.NumStates()) << text;
    EXPECT_EQ(dense.initial(), dfa.initial()) << text;
    for (int32_t s = 0; s < dfa.NumStates(); ++s) {
      EXPECT_EQ(dense.accepting(s), dfa.accepting(s)) << text << " s=" << s;
      for (LabelId a = 0; a < alphabet.size(); ++a) {
        EXPECT_EQ(dense.Next(s, a), dfa.Next(s, a))
            << text << " s=" << s << " label=" << alphabet.Name(a);
      }
    }
  }
}

TEST(DenseDfaTest, LabelsInternedAfterBuildUseTheOtherColumn) {
  Alphabet alphabet;
  auto regex = regex::Regex::Parse(&alphabet, "a/b*");
  ASSERT_TRUE(regex.ok());
  const regex::Dfa& dfa = regex->dfa();
  const regex::DenseDfa& dense = regex->dense_dfa();
  // Interned after the dense table was frozen: the open-ended alphabet
  // must still resolve, through the shared "other" column.
  LabelId late = alphabet.Intern("interned_after_build");
  EXPECT_EQ(dense.Column(late), regex::DenseDfa::kOtherColumn);
  for (int32_t s = 0; s < dfa.NumStates(); ++s) {
    EXPECT_EQ(dense.Next(s, late), dfa.Next(s, late)) << "s=" << s;
    EXPECT_EQ(dense.Next(s, late), dfa.state(s).otherwise) << "s=" << s;
  }
}

TEST(DenseDfaTest, DeadColumnsAreReportedNotLive) {
  Alphabet alphabet;
  auto regex = regex::Regex::Parse(&alphabet, "a/a");
  ASSERT_TRUE(regex.ok());
  const regex::DenseDfa& dense = regex->dense_dfa();
  LabelId a = alphabet.Intern("a");
  LabelId z = alphabet.Intern("z_unrelated");
  EXPECT_TRUE(dense.AnyLive(a));
  // "a/a" moves on nothing but 'a', so every other label's column is dead
  // and MatchTables may skip the whole per-state loop for it.
  EXPECT_FALSE(dense.AnyLive(z));
}

// ---------------------------------------------------------------------------
// DocIndex: frozen snapshot matches the live tree, detached nodes and all.

TEST(DocIndexTest, SnapshotMatchesDocumentAfterDetach) {
  Alphabet alphabet;
  xml::Document doc(&alphabet);
  xml::NodeId a1 = doc.AddElement(doc.root(), "a");
  xml::NodeId b1 = doc.AddElement(a1, "b");
  doc.AddText(b1, "v1");
  xml::NodeId a2 = doc.AddElement(doc.root(), "a");
  xml::NodeId b2 = doc.AddElement(a2, "b");
  doc.AddText(b2, "v2");
  doc.DetachSubtree(b1);  // garbage stays in the arena

  const xml::DocIndex index = xml::DocIndex::Build(doc);
  EXPECT_EQ(&index.doc(), &doc);
  EXPECT_EQ(index.root(), doc.root());
  EXPECT_EQ(index.ArenaSize(), doc.ArenaSize());
  EXPECT_EQ(index.LiveNodeCount(), doc.LiveNodeCount());

  std::set<xml::NodeId> live;
  auto visit = [&](auto&& self, xml::NodeId n) -> void {
    live.insert(n);
    for (xml::NodeId c : doc.Children(n)) self(self, c);
  };
  visit(visit, doc.root());
  for (xml::NodeId n = 0; n < doc.ArenaSize(); ++n) {
    std::span<const xml::NodeId> kids = index.Children(n);
    if (live.count(n) == 0) {
      // Detached-at-Build nodes read as childless; no live node lists
      // them as a child, so the tables never reach them.
      EXPECT_TRUE(kids.empty()) << "n=" << n;
      continue;
    }
    EXPECT_EQ(std::vector<xml::NodeId>(kids.begin(), kids.end()),
              doc.Children(n))
        << "n=" << n;
    EXPECT_EQ(index.ChildCount(n), doc.ChildCount(n)) << "n=" << n;
    EXPECT_EQ(index.label(n), doc.label(n)) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Satellite 1: every compilation path hands patterns minimal edge DFAs.

void ExpectMinimalEdges(const pattern::TreePattern& pattern,
                        const char* what) {
  for (pattern::PatternNodeId w = 1; w < pattern.NumNodes(); ++w) {
    const regex::Dfa& dfa = pattern.edge(w).dfa();
    EXPECT_EQ(dfa.Minimize().NumStates(), dfa.NumStates())
        << what << " edge " << w << " carries a non-minimal DFA";
  }
}

TEST(MinimalEdgeDfaTest, PaperFd3AndFd4EdgesAreMinimal) {
  Alphabet alphabet;
  auto fd3 = fd::FunctionalDependency::FromParsed(workload::PaperFd3(&alphabet));
  ASSERT_TRUE(fd3.ok()) << fd3.status().ToString();
  ExpectMinimalEdges(fd3->pattern(), "fd3");
  auto fd4 = fd::FunctionalDependency::FromParsed(workload::PaperFd4(&alphabet));
  ASSERT_TRUE(fd4.ok()) << fd4.status().ToString();
  ExpectMinimalEdges(fd4->pattern(), "fd4");
}

TEST(MinimalEdgeDfaTest, XPathAndPathFdCompilersMinimizeToo) {
  Alphabet alphabet;
  auto xp = xpath::CompileXPath(&alphabet, "//a/b[.//c]/d | /e//f");
  ASSERT_TRUE(xp.ok()) << xp.status().ToString();
  for (const pattern::TreePattern& branch : xp->branches) {
    ExpectMinimalEdges(branch, "xpath");
  }
  auto fd = fd::ParseAndCompilePathFd(&alphabet, "(/r/s, (a/b) -> a/c)");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ExpectMinimalEdges(fd->pattern(), "path-fd");
}

// ---------------------------------------------------------------------------
// Satellite 2: TraceOf output ordering is pinned (ascending node id).

TEST(TraceOfTest, ReturnsPathUnionSortedByNodeIdAscending) {
  Alphabet alphabet;
  xml::Document doc(&alphabet);
  xml::NodeId a1 = doc.AddElement(doc.root(), "a");
  xml::NodeId b1 = doc.AddElement(a1, "b");
  xml::NodeId c1 = doc.AddElement(b1, "c");
  doc.AddElement(doc.root(), "a");  // not part of the traced mapping

  // Edge "a/b" maps x to b1 through intermediate node a1; edge "c" maps y
  // to c1.
  auto parsed = pattern::ParsePattern(&alphabet,
                                      "root {\n"
                                      "  x = a/b {\n"
                                      "    y = c;\n"
                                      "  }\n"
                                      "}\n"
                                      "select x, y;\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  pattern::MatchTables tables =
      pattern::MatchTables::Build(parsed->pattern, doc);
  pattern::MappingEnumerator enumerator(tables);
  std::vector<std::vector<xml::NodeId>> traces;
  enumerator.ForEach([&](const pattern::Mapping& m) {
    traces.push_back(pattern::TraceOf(doc, m));
    return true;
  });
  ASSERT_EQ(traces.size(), 1u);
  // The pinned contract: the union of root-to-image paths (intermediate
  // path nodes included), sorted ascending by node id, no duplicates.
  EXPECT_EQ(traces[0],
            (std::vector<xml::NodeId>{doc.root(), a1, b1, c1}));
  for (size_t i = 1; i < traces[0].size(); ++i) {
    EXPECT_LT(traces[0][i - 1], traces[0][i]);
  }
}

// ---------------------------------------------------------------------------
// Shared-snapshot evaluation and DenseDfa memoization.

TEST(DenseKernelTest, DocAndIndexBuildsAreBitIdentical) {
  Alphabet alphabet;
  xml::Document doc(&alphabet);
  xml::NodeId s = doc.AddElement(doc.root(), "session");
  doc.AddElement(s, "candidate");
  doc.AddElement(s, "candidate");
  auto parsed = pattern::ParsePattern(
      &alphabet, "root { session { c = candidate; } } select c;");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const xml::DocIndex index = xml::DocIndex::Build(doc);
  EXPECT_EQ(pattern::EvaluateSelected(parsed->pattern, doc),
            pattern::EvaluateSelected(parsed->pattern, index));

  pattern::MatchTables from_doc =
      pattern::MatchTables::Build(parsed->pattern, doc);
  pattern::MatchTables from_index =
      pattern::MatchTables::Build(parsed->pattern, index);
  EXPECT_EQ(pattern::MappingEnumerator(from_doc).Count(),
            pattern::MappingEnumerator(from_index).Count());
}

}  // namespace
}  // namespace rtp
