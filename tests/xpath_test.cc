#include "xpath/xpath.h"

#include <gtest/gtest.h>

#include "independence/criterion.h"
#include "update/update_class.h"
#include "workload/exam_generator.h"
#include "workload/paper_patterns.h"
#include "xml/xml_io.h"

namespace rtp::xpath {
namespace {

using xml::Document;
using xml::NodeId;

CompiledXPath MustCompile(Alphabet* alphabet, std::string_view query) {
  auto compiled = CompileXPath(alphabet, query);
  RTP_CHECK_MSG(compiled.ok(), compiled.status().ToString().c_str());
  return std::move(compiled).value();
}

class XPathTest : public ::testing::Test {
 protected:
  XPathTest() : doc_(workload::BuildPaperFigure1Document(&alphabet_)) {}

  Alphabet alphabet_;
  Document doc_;
};

TEST_F(XPathTest, ChildAxisPath) {
  CompiledXPath q = MustCompile(&alphabet_, "/session/candidate/exam");
  std::vector<NodeId> nodes = EvaluateXPath(q, doc_);
  EXPECT_EQ(nodes.size(), 4u);
  for (NodeId n : nodes) EXPECT_EQ(doc_.label_name(n), "exam");
}

TEST_F(XPathTest, DescendantAxis) {
  CompiledXPath q = MustCompile(&alphabet_, "//discipline");
  // 4 exam disciplines + 1 toBePassed discipline.
  EXPECT_EQ(EvaluateXPath(q, doc_).size(), 5u);

  CompiledXPath nested = MustCompile(&alphabet_, "/session//discipline");
  EXPECT_EQ(EvaluateXPath(nested, doc_).size(), 5u);

  CompiledXPath under_exam = MustCompile(&alphabet_, "//exam/discipline");
  EXPECT_EQ(EvaluateXPath(under_exam, doc_).size(), 4u);
}

TEST_F(XPathTest, WildcardAndLeafTests) {
  CompiledXPath stars = MustCompile(&alphabet_, "/session/*/exam/*");
  // Each exam has 4 element children: 16 nodes.
  EXPECT_EQ(EvaluateXPath(stars, doc_).size(), 16u);

  CompiledXPath attr = MustCompile(&alphabet_, "/session/candidate/@IDN");
  std::vector<NodeId> attrs = EvaluateXPath(attr, doc_);
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(doc_.value(attrs[0]), "001");
  EXPECT_EQ(doc_.value(attrs[1]), "012");

  CompiledXPath text = MustCompile(&alphabet_, "//level/text()");
  std::vector<NodeId> texts = EvaluateXPath(text, doc_);
  ASSERT_EQ(texts.size(), 2u);
  EXPECT_EQ(doc_.value(texts[0]), "B");
  EXPECT_EQ(doc_.value(texts[1]), "C");
}

TEST_F(XPathTest, Predicates) {
  // Candidates that still have exams to pass.
  CompiledXPath q = MustCompile(&alphabet_, "/session/candidate[toBePassed]");
  std::vector<NodeId> nodes = EvaluateXPath(q, doc_);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(doc_.value(doc_.first_child(nodes[0])), "001");

  // Their levels (predicate midway through the path). Note the template
  // order requirement: level follows toBePassed in the template, but in
  // the document level precedes toBePassed — so we list the predicate
  // AFTER the step continuation would not match; instead use the
  // attribute (first child) as the witness.
  CompiledXPath levels =
      MustCompile(&alphabet_, "/session/candidate[@IDN]/level");
  EXPECT_EQ(EvaluateXPath(levels, doc_).size(), 2u);
}

TEST_F(XPathTest, PredicateWithRelativePath) {
  // Candidates having some exam with a mark (all of them).
  CompiledXPath q =
      MustCompile(&alphabet_, "/session/candidate[exam/mark]");
  EXPECT_EQ(EvaluateXPath(q, doc_).size(), 2u);

  // Candidates with a chemistry discipline somewhere below: none have the
  // label 'chemistry' as an element name (it is text content), so empty.
  CompiledXPath none =
      MustCompile(&alphabet_, "/session/candidate[.//chemistry]");
  EXPECT_TRUE(EvaluateXPath(none, doc_).empty());
}

TEST_F(XPathTest, OrderedPredicateCaveat) {
  // The documented divergence from standard XPath: predicates must match
  // in document order BEFORE the continuation. 'level' precedes
  // 'toBePassed' in candidate children, so [toBePassed]/level selects
  // nothing while [exam]/level works.
  CompiledXPath after =
      MustCompile(&alphabet_, "/session/candidate[toBePassed]/level");
  EXPECT_TRUE(EvaluateXPath(after, doc_).empty());

  CompiledXPath before =
      MustCompile(&alphabet_, "/session/candidate[exam]/level");
  EXPECT_EQ(EvaluateXPath(before, doc_).size(), 2u);
}

TEST_F(XPathTest, UnionOfPaths) {
  CompiledXPath q =
      MustCompile(&alphabet_, "//level | //rank | /session/candidate/@IDN");
  ASSERT_EQ(q.branches.size(), 3u);
  std::vector<NodeId> nodes = EvaluateXPath(q, doc_);
  // 2 levels + 4 ranks + 2 attributes.
  EXPECT_EQ(nodes.size(), 8u);
  // Document order and dedup.
  for (size_t i = 1; i < nodes.size(); ++i) {
    EXPECT_TRUE(doc_.DocumentOrderLess(nodes[i - 1], nodes[i]));
  }
}

TEST_F(XPathTest, MultiplePredicates) {
  CompiledXPath q =
      MustCompile(&alphabet_, "/session/candidate[@IDN][exam]/level");
  EXPECT_EQ(EvaluateXPath(q, doc_).size(), 2u);
}

TEST_F(XPathTest, ParseErrors) {
  Alphabet alphabet;
  EXPECT_FALSE(CompileXPath(&alphabet, "").ok());
  EXPECT_FALSE(CompileXPath(&alphabet, "session").ok());  // relative
  EXPECT_FALSE(CompileXPath(&alphabet, "/a[").ok());
  EXPECT_FALSE(CompileXPath(&alphabet, "/a]").ok());
  EXPECT_FALSE(CompileXPath(&alphabet, "/a | b").ok());
  EXPECT_FALSE(CompileXPath(&alphabet, "/a//").ok());
}

TEST_F(XPathTest, XPathUpdateClassFeedsCriterion) {
  // The conclusion's application: update classes given in XPath drive the
  // independence analysis.
  CompiledXPath q = MustCompile(&alphabet_, "/session/candidate/level");
  ASSERT_EQ(q.branches.size(), 1u);
  auto cls = update::UpdateClass::Create(q.branches[0]);
  ASSERT_TRUE(cls.ok());

  auto fd1 = fd::FunctionalDependency::FromParsed(workload::PaperFd1(&alphabet_));
  ASSERT_TRUE(fd1.ok());
  auto result =
      independence::CheckIndependence(*fd1, *cls, nullptr, &alphabet_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->independent);

  CompiledXPath ranks = MustCompile(&alphabet_, "//rank");
  auto rank_cls = update::UpdateClass::Create(ranks.branches[0]);
  ASSERT_TRUE(rank_cls.ok());
  auto flagged =
      independence::CheckIndependence(*fd1, *rank_cls, nullptr, &alphabet_);
  ASSERT_TRUE(flagged.ok());
  EXPECT_FALSE(flagged->independent);
}

}  // namespace
}  // namespace rtp::xpath
