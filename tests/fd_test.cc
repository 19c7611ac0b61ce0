#include "fd/fd_checker.h"

#include <gtest/gtest.h>

#include "fd/path_fd.h"
#include "workload/exam_generator.h"
#include "workload/paper_patterns.h"

namespace rtp::fd {
namespace {

using xml::Document;
using xml::NodeId;

FunctionalDependency MustFd(pattern::ParsedPattern parsed) {
  auto fd = FunctionalDependency::FromParsed(std::move(parsed));
  RTP_CHECK_MSG(fd.ok(), fd.status().ToString().c_str());
  return std::move(fd).value();
}

NodeId AddTextElement(Document* doc, NodeId parent, std::string_view label,
                      std::string_view text) {
  NodeId e = doc->AddElement(parent, label);
  doc->AddText(e, text);
  return e;
}

NodeId AddExam(Document* doc, NodeId candidate, std::string_view discipline,
               std::string_view date, std::string_view mark,
               std::string_view rank) {
  NodeId exam = doc->AddElement(candidate, "exam");
  AddTextElement(doc, exam, "discipline", discipline);
  AddTextElement(doc, exam, "date", date);
  AddTextElement(doc, exam, "mark", mark);
  AddTextElement(doc, exam, "rank", rank);
  return exam;
}

class FdPaperTest : public ::testing::Test {
 protected:
  FdPaperTest() : doc_(workload::BuildPaperFigure1Document(&alphabet_)) {}

  Alphabet alphabet_;
  Document doc_;
};

TEST_F(FdPaperTest, CreateValidatesContextAncestry) {
  // Context below a selected node is rejected.
  auto parsed = pattern::ParsePattern(&alphabet_, R"(
    root {
      a {
        c = b {
          q = d;
        }
      }
    }
    select c;
    context q;
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto fd = FunctionalDependency::FromParsed(std::move(parsed).value());
  EXPECT_FALSE(fd.ok());
}

TEST_F(FdPaperTest, CreateRequiresSelectedNodes) {
  auto parsed = pattern::ParsePattern(&alphabet_, R"(
    root { c = a; }
    context c;
  )");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(FunctionalDependency::FromParsed(std::move(parsed).value()).ok());
}

TEST_F(FdPaperTest, ConditionsAndTargetSplit) {
  FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet_));
  EXPECT_EQ(fd1.conditions().size(), 2u);
  EXPECT_EQ(fd1.target().equality, pattern::EqualityType::kValue);
  FunctionalDependency fd2 = MustFd(workload::PaperFd2(&alphabet_));
  EXPECT_EQ(fd2.target().equality, pattern::EqualityType::kNode);
}

TEST_F(FdPaperTest, Fd1SatisfiedOnFigure1) {
  FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet_));
  CheckResult result = CheckFd(fd1, doc_);
  EXPECT_TRUE(result.satisfied);
  EXPECT_EQ(result.num_mappings, 4u);  // one per exam
}

TEST_F(FdPaperTest, Fd1ViolatedByInconsistentRank) {
  // Add a third candidate whose math/15 exam has a different rank.
  NodeId session = doc_.first_child(doc_.root());
  NodeId c3 = doc_.AddElement(session, "candidate");
  doc_.AddAttribute(c3, "@IDN", "020");
  AddExam(&doc_, c3, "math", "2009-06-12", "15", "9");
  AddTextElement(&doc_, c3, "level", "C");
  AddTextElement(&doc_, c3, "firstJob-Year", "2013");

  FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet_));
  CheckResult result = CheckFd(fd1, doc_);
  EXPECT_FALSE(result.satisfied);
  ASSERT_TRUE(result.violation.has_value());
  std::string description = result.violation->Describe(doc_, fd1);
  EXPECT_NE(description.find("violation"), std::string::npos);
  EXPECT_NE(description.find("rank"), std::string::npos);
}

TEST_F(FdPaperTest, Fd2SatisfiedOnFigure1) {
  FunctionalDependency fd2 = MustFd(workload::PaperFd2(&alphabet_));
  EXPECT_TRUE(CheckFd(fd2, doc_).satisfied);
}

TEST_F(FdPaperTest, Fd2ViolatedByDuplicateExam) {
  // Candidate 001 retakes math on the same date: two different exam nodes
  // with equal date and discipline.
  NodeId session = doc_.first_child(doc_.root());
  NodeId c1 = doc_.first_child(session);
  AddExam(&doc_, c1, "math", "2009-06-12", "8", "11");

  FunctionalDependency fd2 = MustFd(workload::PaperFd2(&alphabet_));
  CheckResult result = CheckFd(fd2, doc_);
  EXPECT_FALSE(result.satisfied);
}

TEST_F(FdPaperTest, Fd2NodeEqualityKeepsSameExamHarmless) {
  // A single exam node matched by two identical traces does not violate a
  // node-equality target.
  FunctionalDependency fd2 = MustFd(workload::PaperFd2(&alphabet_));
  CheckResult result = CheckFd(fd2, doc_);
  EXPECT_TRUE(result.satisfied);
  EXPECT_GE(result.num_mappings, 4u);
}

TEST_F(FdPaperTest, Fd3SatisfiedOnFigure1) {
  // The two candidates share only one (discipline, mark) pair, so no two
  // traces agree on both condition marks.
  FunctionalDependency fd3 = MustFd(workload::PaperFd3(&alphabet_));
  EXPECT_TRUE(CheckFd(fd3, doc_).satisfied);
}

TEST_F(FdPaperTest, Fd3ViolationTwoCandidatesSameMarksDifferentLevels) {
  // Example 5 shape: two candidates with the same marks in two disciplines
  // but different levels.
  Document doc(&alphabet_);
  NodeId session = doc.AddElement(doc.root(), "session");
  for (int i = 0; i < 2; ++i) {
    NodeId c = doc.AddElement(session, "candidate");
    doc.AddAttribute(c, "@IDN", i == 0 ? "100" : "200");
    AddExam(&doc, c, "bio", "2009-06-01", "12", "3");
    AddExam(&doc, c, "math", "2009-06-02", "17", "1");
    AddTextElement(&doc, c, "level", i == 0 ? "A" : "B");
    AddTextElement(&doc, c, "firstJob-Year", "2012");
  }
  FunctionalDependency fd3 = MustFd(workload::PaperFd3(&alphabet_));
  CheckResult result = CheckFd(fd3, doc);
  EXPECT_FALSE(result.satisfied);
}

TEST_F(FdPaperTest, Fd4RequiresToBePassedLeaf) {
  // Same violating document as above, but with firstJob-Year children:
  // fd4's traces require a toBePassed leaf, so fd4 is satisfied.
  Document doc(&alphabet_);
  NodeId session = doc.AddElement(doc.root(), "session");
  for (int i = 0; i < 2; ++i) {
    NodeId c = doc.AddElement(session, "candidate");
    AddExam(&doc, c, "bio", "2009-06-01", "12", "3");
    AddExam(&doc, c, "math", "2009-06-02", "17", "1");
    AddTextElement(&doc, c, "level", i == 0 ? "A" : "B");
    AddTextElement(&doc, c, "firstJob-Year", "2012");
  }
  FunctionalDependency fd4 = MustFd(workload::PaperFd4(&alphabet_));
  EXPECT_TRUE(CheckFd(fd4, doc).satisfied);

  // Give both candidates a toBePassed child: now fd4 is violated.
  for (NodeId c : doc.Children(session)) {
    NodeId tbp = doc.AddElement(c, "toBePassed");
    AddTextElement(&doc, tbp, "discipline", "chem");
  }
  EXPECT_FALSE(CheckFd(fd4, doc).satisfied);
}

TEST_F(FdPaperTest, Fd5OnFigure1) {
  FunctionalDependency fd5 = MustFd(workload::PaperFd5(&alphabet_));
  EXPECT_TRUE(CheckFd(fd5, doc_).satisfied);

  // Two graduated candidates with equal levels but different first-job
  // years violate fd5.
  NodeId session = doc_.first_child(doc_.root());
  NodeId c3 = doc_.AddElement(session, "candidate");
  doc_.AddAttribute(c3, "@IDN", "030");
  AddExam(&doc_, c3, "math", "2009-06-12", "10", "8");
  AddTextElement(&doc_, c3, "level", "C");  // same level as candidate 012
  AddTextElement(&doc_, c3, "firstJob-Year", "2015");
  EXPECT_FALSE(CheckFd(fd5, doc_).satisfied);
}

TEST_F(FdPaperTest, ContextScopesComparisons) {
  // fd1 has context 'session': ranks must agree across candidates of the
  // same session but may differ across sessions.
  Document doc(&alphabet_);
  for (int s = 0; s < 2; ++s) {
    NodeId session = doc.AddElement(doc.root(), "session");
    NodeId c = doc.AddElement(session, "candidate");
    // Same discipline+mark in both sessions but different ranks.
    AddExam(&doc, c, "math", "2009-06-12", "15", s == 0 ? "1" : "2");
    AddTextElement(&doc, c, "level", "B");
    AddTextElement(&doc, c, "firstJob-Year", "2012");
  }
  FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet_));
  EXPECT_TRUE(CheckFd(fd1, doc).satisfied);

  // With a root context instead, the same document violates.
  auto fd_root = ParseAndCompilePathFd(
      &alphabet_,
      "(/, (session/candidate/exam/discipline, session/candidate/exam/mark) "
      "-> session/candidate/exam/rank)");
  ASSERT_TRUE(fd_root.ok()) << fd_root.status().ToString();
  EXPECT_FALSE(CheckFd(*fd_root, doc).satisfied);
}

TEST_F(FdPaperTest, StopAtFirstViolationVersusFullCount) {
  NodeId session = doc_.first_child(doc_.root());
  for (int i = 0; i < 3; ++i) {
    NodeId c = doc_.AddElement(session, "candidate");
    AddExam(&doc_, c, "math", "2009-06-12", "15", std::to_string(20 + i));
    AddTextElement(&doc_, c, "level", "E");
    AddTextElement(&doc_, c, "firstJob-Year", "2012");
  }
  FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet_));
  CheckResult stop = CheckFd(fd1, doc_);
  CheckOptions keep_counting;
  keep_counting.stop_at_first_violation = false;
  CheckResult full = CheckFd(fd1, doc_, keep_counting);
  EXPECT_FALSE(stop.satisfied);
  EXPECT_FALSE(full.satisfied);
  EXPECT_LE(stop.num_mappings, full.num_mappings);
  EXPECT_EQ(full.num_mappings, 7u);
}

// --- Path FD formalism ([8]) ---

TEST(PathFdTest, ParseExpr1) {
  auto parsed = ParsePathFd(
      "(/session, (candidate/exam/discipline, candidate/exam/mark) -> "
      "candidate/exam/rank)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->context, (std::vector<std::string>{"session"}));
  ASSERT_EQ(parsed->conditions.size(), 2u);
  EXPECT_EQ(parsed->conditions[0].steps,
            (std::vector<std::string>{"candidate", "exam", "discipline"}));
  EXPECT_EQ(parsed->target.steps,
            (std::vector<std::string>{"candidate", "exam", "rank"}));
  EXPECT_EQ(parsed->target.equality, pattern::EqualityType::kValue);
}

TEST(PathFdTest, ParseExpr2WithNodeEquality) {
  auto parsed = ParsePathFd(
      "(/session/candidate, (exam/date, exam/discipline) -> exam[N])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->context,
            (std::vector<std::string>{"session", "candidate"}));
  EXPECT_EQ(parsed->target.equality, pattern::EqualityType::kNode);
}

TEST(PathFdTest, ParseErrors) {
  EXPECT_FALSE(ParsePathFd("").ok());
  EXPECT_FALSE(ParsePathFd("(session, (a) -> b)").ok());   // not absolute
  EXPECT_FALSE(ParsePathFd("(/s, (a) -> )").ok());
  EXPECT_FALSE(ParsePathFd("(/s, a -> b)").ok());          // missing parens
  EXPECT_FALSE(ParsePathFd("(/s, (a) -> b) x").ok());      // trailing
  EXPECT_FALSE(ParsePathFd("(/s, (a[Z]) -> b)").ok());     // bad equality
}

TEST(PathFdTest, Expr1CompilesToFd1Shape) {
  Alphabet alphabet;
  auto fd = ParseAndCompilePathFd(
      &alphabet,
      "(/session, (candidate/exam/discipline, candidate/exam/mark) -> "
      "candidate/exam/rank)");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  // Factorized template: root, session, candidate/exam, discipline, mark,
  // rank = 6 nodes; the common prefix candidate/exam is shared.
  EXPECT_EQ(fd->pattern().NumNodes(), 6u);
  EXPECT_EQ(fd->pattern().MaxArity(), 3u);

  // Behavior matches the DSL-built fd1 on the paper document and on a
  // violating variant.
  Document doc = workload::BuildPaperFigure1Document(&alphabet);
  FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet));
  EXPECT_EQ(CheckFd(*fd, doc).satisfied, CheckFd(fd1, doc).satisfied);

  NodeId session = doc.first_child(doc.root());
  NodeId c = doc.AddElement(session, "candidate");
  AddExam(&doc, c, "math", "2009-06-12", "15", "99");
  AddTextElement(&doc, c, "level", "E");
  AddTextElement(&doc, c, "firstJob-Year", "2012");
  EXPECT_FALSE(CheckFd(*fd, doc).satisfied);
  EXPECT_FALSE(CheckFd(fd1, doc).satisfied);
}

TEST(PathFdTest, Expr2CompilesToFd2Shape) {
  Alphabet alphabet;
  auto fd = ParseAndCompilePathFd(
      &alphabet,
      "(/session/candidate, (exam/discipline, exam/date) -> exam[N])");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  // root, session/candidate (context), exam, discipline, date = 5 nodes.
  EXPECT_EQ(fd->pattern().NumNodes(), 5u);

  Document doc = workload::BuildPaperFigure1Document(&alphabet);
  EXPECT_TRUE(CheckFd(*fd, doc).satisfied);
}

TEST(PathFdTest, RootContext) {
  Alphabet alphabet;
  auto fd = ParseAndCompilePathFd(&alphabet, "(/, (a/b) -> a/c)");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  EXPECT_EQ(fd->context(), pattern::TreePattern::kRoot);
  EXPECT_EQ(fd->pattern().NumNodes(), 4u);  // root, a, b, c
}

TEST(PathFdTest, PrefixEndpointNotCompressedAway) {
  Alphabet alphabet;
  // 'a/b' is a prefix of 'a/b/c': both endpoints must exist as template
  // nodes.
  auto fd = ParseAndCompilePathFd(&alphabet, "(/, (a/b) -> a/b/c)");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  EXPECT_EQ(fd->pattern().NumNodes(), 3u);  // root, b (endpoint), c
  const auto& selected = fd->pattern().selected();
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(fd->pattern().parent(selected[1].node), selected[0].node);
}

TEST(PathFdTest, DuplicatePathsShareOneNode) {
  Alphabet alphabet;
  auto fd = ParseAndCompilePathFd(&alphabet, "(/, (a/b, a/b) -> a/c)");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const auto& selected = fd->pattern().selected();
  ASSERT_EQ(selected.size(), 3u);
  EXPECT_EQ(selected[0].node, selected[1].node);
}

TEST(PathFdTest, EmptyConditionListIsConstantDependency) {
  Alphabet alphabet;
  auto fd = ParseAndCompilePathFd(&alphabet, "(/s, () -> a)");
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  // Within one context node, all 'a' values must coincide.
  Document doc(&alphabet);
  NodeId s = doc.AddElement(doc.root(), "s");
  NodeId a1 = doc.AddElement(s, "a");
  doc.AddText(a1, "1");
  EXPECT_TRUE(CheckFd(*fd, doc).satisfied);
  NodeId a2 = doc.AddElement(s, "a");
  doc.AddText(a2, "2");
  EXPECT_FALSE(CheckFd(*fd, doc).satisfied);
}

}  // namespace
}  // namespace rtp::fd
