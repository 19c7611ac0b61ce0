#include "automata/hedge_automaton.h"

#include <gtest/gtest.h>

#include "automata/pattern_compiler.h"
#include "automata/product.h"
#include "automata/reference_emptiness.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "workload/exam_generator.h"
#include "workload/paper_patterns.h"
#include "xml/xml_io.h"

namespace rtp::automata {
namespace {

using pattern::ParsedPattern;
using xml::Document;
using xml::NodeId;

ParsedPattern MustParse(Alphabet* alphabet, std::string_view text) {
  auto parsed = pattern::ParsePattern(alphabet, text);
  RTP_CHECK_MSG(parsed.ok(), parsed.status().ToString().c_str());
  return std::move(parsed).value();
}

TEST(GuardTest, LabelAndAnyExcept) {
  Guard label = Guard::Label(3);
  EXPECT_TRUE(label.Admits(3));
  EXPECT_FALSE(label.Admits(4));

  Guard any = Guard::Any();
  EXPECT_TRUE(any.Admits(3));

  Guard except = Guard::AnyExcept({2, 5});
  EXPECT_TRUE(except.Admits(3));
  EXPECT_FALSE(except.Admits(5));
}

TEST(GuardTest, Intersection) {
  auto g1 = Guard::Intersect(Guard::Label(3), Guard::Any());
  ASSERT_TRUE(g1.has_value());
  EXPECT_TRUE(g1->Admits(3));
  EXPECT_FALSE(g1->Admits(4));

  EXPECT_FALSE(Guard::Intersect(Guard::Label(3), Guard::Label(4)).has_value());
  EXPECT_FALSE(
      Guard::Intersect(Guard::Label(5), Guard::AnyExcept({5})).has_value());

  auto g2 = Guard::Intersect(Guard::AnyExcept({1}), Guard::AnyExcept({2}));
  ASSERT_TRUE(g2.has_value());
  EXPECT_FALSE(g2->Admits(1));
  EXPECT_FALSE(g2->Admits(2));
  EXPECT_TRUE(g2->Admits(3));
}

TEST(HedgeAutomatonTest, UniversalAcceptsEverything) {
  Alphabet alphabet;
  HedgeAutomaton universal = HedgeAutomaton::Universal();
  Document doc = workload::BuildPaperFigure1Document(&alphabet);
  EXPECT_TRUE(universal.Accepts(doc));
  Document empty(&alphabet);
  EXPECT_TRUE(universal.Accepts(empty));
  EXPECT_FALSE(universal.IsEmptyLanguage());
}

TEST(HedgeAutomatonTest, WitnessOfUniversalIsValid) {
  Alphabet alphabet;
  HedgeAutomaton universal = HedgeAutomaton::Universal();
  auto witness = universal.FindWitnessDocument(&alphabet);
  ASSERT_TRUE(witness.ok()) << witness.status().ToString();
  EXPECT_TRUE(universal.Accepts(*witness));
}

TEST(PatternCompilerTest, AgreesWithEvaluatorOnPaperDocument) {
  Alphabet alphabet;
  Document doc = workload::BuildPaperFigure1Document(&alphabet);
  for (auto maker : {workload::PaperR1, workload::PaperR2, workload::PaperR3,
                     workload::PaperR4, workload::PaperUpdateU}) {
    ParsedPattern p = maker(&alphabet);
    HedgeAutomaton automaton = CompilePattern(p.pattern, MarkMode::kNone);
    pattern::MatchTables tables = pattern::MatchTables::Build(p.pattern, doc);
    EXPECT_EQ(automaton.Accepts(doc), tables.HasTrace());
  }
}

TEST(PatternCompilerTest, SimplePatternAcceptance) {
  Alphabet alphabet;
  ParsedPattern p = MustParse(&alphabet, "root { s = a/b; } select s;");
  HedgeAutomaton automaton = CompilePattern(p.pattern, MarkMode::kNone);

  Document yes(&alphabet);
  NodeId a = yes.AddElement(yes.root(), "a");
  yes.AddElement(a, "b");
  EXPECT_TRUE(automaton.Accepts(yes));

  Document no(&alphabet);
  no.AddElement(no.root(), "a");
  EXPECT_FALSE(automaton.Accepts(no));

  Document wrong_nesting(&alphabet);
  NodeId b = wrong_nesting.AddElement(wrong_nesting.root(), "b");
  wrong_nesting.AddElement(b, "a");
  EXPECT_FALSE(automaton.Accepts(wrong_nesting));
}

TEST(PatternCompilerTest, SiblingOrderEnforced) {
  Alphabet alphabet;
  ParsedPattern xy = MustParse(&alphabet, "root { a { s1 = x; s2 = y; } } select s1, s2;");
  ParsedPattern yx = MustParse(&alphabet, "root { a { s1 = y; s2 = x; } } select s1, s2;");
  HedgeAutomaton axy = CompilePattern(xy.pattern, MarkMode::kNone);
  HedgeAutomaton ayx = CompilePattern(yx.pattern, MarkMode::kNone);

  Document doc(&alphabet);
  NodeId a = doc.AddElement(doc.root(), "a");
  doc.AddElement(a, "x");
  doc.AddElement(a, "y");
  EXPECT_TRUE(axy.Accepts(doc));
  EXPECT_FALSE(ayx.Accepts(doc));
}

TEST(PatternCompilerTest, DivergenceConditionEnforced) {
  Alphabet alphabet;
  ParsedPattern p = MustParse(&alphabet, R"(
    root { a { s1 = b/c; s2 = b/c; } }
    select s1, s2;
  )");
  HedgeAutomaton automaton = CompilePattern(p.pattern, MarkMode::kNone);

  // One shared b with two c children: paths share the b prefix — rejected.
  Document shared(&alphabet);
  NodeId a = shared.AddElement(shared.root(), "a");
  NodeId b = shared.AddElement(a, "b");
  shared.AddElement(b, "c");
  shared.AddElement(b, "c");
  EXPECT_FALSE(automaton.Accepts(shared));

  // Two separate b's: accepted.
  Document split(&alphabet);
  NodeId a2 = split.AddElement(split.root(), "a");
  NodeId b1 = split.AddElement(a2, "b");
  split.AddElement(b1, "c");
  NodeId b2 = split.AddElement(a2, "b");
  split.AddElement(b2, "c");
  EXPECT_TRUE(automaton.Accepts(split));
}

TEST(PatternCompilerTest, EmptinessAndWitness) {
  Alphabet alphabet;
  ParsedPattern p = MustParse(&alphabet, R"(
    root {
      session {
        candidate {
          s = exam/mark;
          level;
        }
      }
    }
    select s;
  )");
  HedgeAutomaton automaton = CompilePattern(p.pattern, MarkMode::kNone);
  EXPECT_FALSE(automaton.IsEmptyLanguage());

  auto witness = automaton.FindWitnessDocument(&alphabet);
  ASSERT_TRUE(witness.ok()) << witness.status().ToString();
  EXPECT_TRUE(automaton.Accepts(*witness));
  // The witness also has a trace per the evaluator.
  pattern::MatchTables tables = pattern::MatchTables::Build(p.pattern, *witness);
  EXPECT_TRUE(tables.HasTrace());
}

TEST(PatternCompilerTest, SizeIsLinearInPattern) {
  // Chain patterns of growing depth: automaton size must grow linearly.
  Alphabet alphabet;
  int64_t prev_size = 0;
  int64_t prev_delta = 0;
  for (int depth : {2, 4, 8, 16}) {
    pattern::TreePattern p;
    pattern::PatternNodeId cur = pattern::TreePattern::kRoot;
    for (int i = 0; i < depth; ++i) {
      auto re = regex::Regex::Parse(&alphabet, "a/b");
      RTP_CHECK(re.ok());
      cur = p.AddChild(cur, std::move(re).value());
    }
    p.AddSelected(cur);
    HedgeAutomaton automaton = CompilePattern(p, MarkMode::kNone);
    int64_t size = automaton.TotalSize();
    if (prev_size > 0) {
      int64_t delta = size - prev_size;
      if (prev_delta > 0) {
        // Linear growth: per-level increment roughly doubles as the depth
        // doubles.
        EXPECT_LE(delta, prev_delta * 2 + 16);
      }
      prev_delta = delta;
    }
    prev_size = size;
  }
}

TEST(ProductTest, IntersectionAcceptsConjunction) {
  Alphabet alphabet;
  ParsedPattern pa = MustParse(&alphabet, "root { s = a; } select s;");
  ParsedPattern pb = MustParse(&alphabet, "root { s = b; } select s;");
  HedgeAutomaton a = CompilePattern(pa.pattern, MarkMode::kNone);
  HedgeAutomaton b = CompilePattern(pb.pattern, MarkMode::kNone);
  HedgeAutomaton both = Intersect(a, b);

  Document only_a(&alphabet);
  only_a.AddElement(only_a.root(), "a");
  Document only_b(&alphabet);
  only_b.AddElement(only_b.root(), "b");
  Document ab(&alphabet);
  ab.AddElement(ab.root(), "a");
  ab.AddElement(ab.root(), "b");

  EXPECT_FALSE(both.Accepts(only_a));
  EXPECT_FALSE(both.Accepts(only_b));
  EXPECT_TRUE(both.Accepts(ab));
  EXPECT_FALSE(both.IsEmptyLanguage());

  auto witness = both.FindWitnessDocument(&alphabet);
  ASSERT_TRUE(witness.ok());
  EXPECT_TRUE(a.Accepts(*witness));
  EXPECT_TRUE(b.Accepts(*witness));
}

TEST(ProductTest, IntersectionEmptiness) {
  Alphabet alphabet;
  // 'a' as only child vs 'b' as only child: both constraints can hold in
  // one document only if it has both children — build patterns that demand
  // the SAME single child be a and b.
  ParsedPattern pa = MustParse(&alphabet, "root { s = a; } select s;");
  HedgeAutomaton a = CompilePattern(pa.pattern, MarkMode::kNone);
  // Schema-like automaton accepting only documents whose every node is
  // labeled 'b' (no 'a' anywhere): single state with Label(b) guard plus
  // the root.
  HedgeAutomaton only_b;
  StateId qb = only_b.AddState(false);
  {
    regex::Dfa::State h;
    h.accepting = true;
    h.next.emplace(static_cast<LabelId>(qb), 0);
    only_b.AddTransition(Guard::Label(alphabet.Intern("b")),
                         regex::Dfa::FromStates({h}, 0), qb);
  }
  StateId qroot = only_b.AddState(false);
  {
    regex::Dfa::State h;
    h.accepting = true;
    h.next.emplace(static_cast<LabelId>(qb), 0);
    only_b.AddTransition(Guard::Label(Alphabet::kRootLabel),
                         regex::Dfa::FromStates({h}, 0), qroot);
  }
  only_b.AddRootAccepting(qroot);

  EXPECT_FALSE(only_b.IsEmptyLanguage());
  HedgeAutomaton impossible = Intersect(a, only_b);
  EXPECT_TRUE(impossible.IsEmptyLanguage());
  EXPECT_FALSE(impossible.FindWitnessDocument(&alphabet).ok());
}

TEST(ProductTest, MeetProductRequiresSharedMarkedNode) {
  Alphabet alphabet;
  // A marks images of 'x = a/b' (selected images only); B marks images of
  // 'y = c' — no document node can be both, unless the same node matches
  // both selections.
  ParsedPattern pa = MustParse(&alphabet, "root { s = a/b; } select s;");
  ParsedPattern pb = MustParse(&alphabet, "root { s = _/b; } select s;");
  HedgeAutomaton a = CompilePattern(pa.pattern, MarkMode::kSelectedImagesOnly);
  HedgeAutomaton b = CompilePattern(pb.pattern, MarkMode::kSelectedImagesOnly);
  HedgeAutomaton meet = MeetProduct(a, b);

  // Both patterns can select the same node: meet nonempty.
  EXPECT_FALSE(meet.IsEmptyLanguage());
  auto witness = meet.FindWitnessDocument(&alphabet);
  ASSERT_TRUE(witness.ok()) << witness.status().ToString();
  EXPECT_TRUE(a.Accepts(*witness));
  EXPECT_TRUE(b.Accepts(*witness));

  // A document where the selections cannot coincide is rejected even
  // though both accept it separately.
  Document disjoint(&alphabet);
  NodeId an = disjoint.AddElement(disjoint.root(), "a");
  disjoint.AddElement(an, "b");
  NodeId cn = disjoint.AddElement(disjoint.root(), "c");
  disjoint.AddElement(cn, "b");
  EXPECT_TRUE(a.Accepts(disjoint));
  EXPECT_TRUE(b.Accepts(disjoint));
  // The only a/b image is node (a,b)'s b; _/b can also select c's b. They
  // CAN coincide on a's b, so the meet accepts this document.
  EXPECT_TRUE(meet.Accepts(disjoint));

  // Remove the shared possibility: a document where a/b selects one node
  // and the other pattern cannot reach it.
  ParsedPattern pc = MustParse(&alphabet, "root { s = c/b; } select s;");
  HedgeAutomaton c = CompilePattern(pc.pattern, MarkMode::kSelectedImagesOnly);
  HedgeAutomaton meet_ac = MeetProduct(a, c);
  EXPECT_TRUE(a.Accepts(disjoint));
  EXPECT_TRUE(c.Accepts(disjoint));
  EXPECT_FALSE(meet_ac.Accepts(disjoint));
  // But some document satisfies both with a shared node? a/b and c/b can
  // never share the selected b node (its parent cannot be both a and c):
  // the meet language is empty.
  EXPECT_TRUE(meet_ac.IsEmptyLanguage());
}

TEST(ProductTest, MeetProductTraceMarks) {
  Alphabet alphabet;
  // FD-side marking includes the whole trace; U-side marks a selected
  // leaf. U selecting a node *on* the FD trace (not the FD selected node)
  // must satisfy the meet.
  ParsedPattern fd_like = MustParse(&alphabet, "root { s = a/b/c; } select s;");
  ParsedPattern u_like = MustParse(&alphabet, "root { s = a; } select s;");
  HedgeAutomaton fd_automaton =
      CompilePattern(fd_like.pattern, MarkMode::kTraceAndSelectedSubtrees);
  HedgeAutomaton u_automaton =
      CompilePattern(u_like.pattern, MarkMode::kSelectedImagesOnly);
  HedgeAutomaton meet = MeetProduct(fd_automaton, u_automaton);

  Document doc(&alphabet);
  NodeId a = doc.AddElement(doc.root(), "a");
  NodeId b = doc.AddElement(a, "b");
  doc.AddElement(b, "c");
  // 'a' is on the trace of a/b/c and is the U-selected node.
  EXPECT_TRUE(meet.Accepts(doc));
}

TEST(ProductTest, MeetProductCoveredSubtreeMarks) {
  Alphabet alphabet;
  // FD selects the subtree rooted at 'b'; U updates 'b/c' nodes — strictly
  // below the FD selected node, inside the covered subtree.
  ParsedPattern fd_like = MustParse(&alphabet, "root { s = a/b; } select s;");
  ParsedPattern u_like = MustParse(&alphabet, "root { s = a/b/c; } select s;");
  HedgeAutomaton fd_automaton =
      CompilePattern(fd_like.pattern, MarkMode::kTraceAndSelectedSubtrees);
  HedgeAutomaton u_automaton =
      CompilePattern(u_like.pattern, MarkMode::kSelectedImagesOnly);
  HedgeAutomaton meet = MeetProduct(fd_automaton, u_automaton);

  Document doc(&alphabet);
  NodeId a = doc.AddElement(doc.root(), "a");
  NodeId b = doc.AddElement(a, "b");
  doc.AddElement(b, "c");
  EXPECT_TRUE(meet.Accepts(doc));

  // Without covered-subtree marks (U-side style marking), the node below
  // the selection is NOT marked, so the meet fails.
  HedgeAutomaton fd_images_only =
      CompilePattern(fd_like.pattern, MarkMode::kSelectedImagesOnly);
  HedgeAutomaton meet2 = MeetProduct(fd_images_only, u_automaton);
  EXPECT_FALSE(meet2.Accepts(doc));
}

// Emptiness edge cases, each checked against the round-based reference.

regex::Dfa::State HState(bool accepting, std::map<LabelId, int32_t> next = {},
                         int32_t otherwise = regex::kDeadState) {
  regex::Dfa::State state;
  state.accepting = accepting;
  state.next = std::move(next);
  state.otherwise = otherwise;
  return state;
}

regex::Dfa Horizontal(std::vector<regex::Dfa::State> states) {
  return regex::Dfa::FromStates(std::move(states), 0);
}

// Verdict of both emptiness tests; on a non-empty language, also the
// witness, which the automaton must accept.
std::string CheckedWitness(const HedgeAutomaton& automaton, bool want_empty,
                           Alphabet* alphabet) {
  EXPECT_EQ(automaton.IsEmptyLanguage(), want_empty);
  EXPECT_EQ(ReferenceIsEmptyLanguage(automaton), want_empty);
  auto witness = automaton.FindWitnessDocument(alphabet);
  EXPECT_EQ(witness.ok(), !want_empty) << witness.status().ToString();
  if (!witness.ok()) return "";
  EXPECT_TRUE(automaton.Accepts(*witness));
  return xml::WriteXml(*witness, /*indent=*/false);
}

TEST(EmptinessTest, OtherwiseEdgeWaitsForAStateOutsideItsKeys) {
  Alphabet alphabet;
  LabelId a = alphabet.Intern("a");
  LabelId b = alphabet.Intern("b");
  auto build = [&](bool with_b) {
    HedgeAutomaton automaton;
    StateId qa = automaton.AddState();  // <a/>
    StateId qb = automaton.AddState();  // <b><a/></b>
    StateId root = automaton.AddState();
    automaton.AddTransition(Guard::Label(a), Horizontal({HState(true)}), qa);
    if (with_b) {
      automaton.AddTransition(
          Guard::Label(b), Horizontal({HState(false, {{qa, 1}}), HState(true)}),
          qb);
    }
    // The root reads one child in any state but qa, whose key leads to the
    // dead state. When the root's initial state is reached, qa is the only
    // inhabited state, so the `otherwise` edge must wait for qb.
    automaton.AddTransition(
        Guard::Any(),
        Horizontal({HState(false, {{qa, regex::kDeadState}}, 1), HState(true)}),
        root);
    automaton.AddRootAccepting(root);
    return automaton;
  };
  EXPECT_EQ(CheckedWitness(build(/*with_b=*/false), true, &alphabet), "");
  EXPECT_EQ(CheckedWitness(build(/*with_b=*/true), false, &alphabet),
            "<b><a/></b>");
}

TEST(EmptinessTest, LeafTransitionWithAcceptingInitialState) {
  Alphabet alphabet;
  LabelId a = alphabet.Intern("a");
  HedgeAutomaton automaton;
  StateId leaf = automaton.AddState();
  StateId root = automaton.AddState();
  // The root transition comes first: its edge on `leaf` is examined before
  // `leaf` is inhabited and must wait for it.
  automaton.AddTransition(
      Guard::Any(), Horizontal({HState(false, {{leaf, 1}}), HState(true)}),
      root);
  automaton.AddTransition(Guard::Label(a), Horizontal({HState(true)}), leaf);
  automaton.AddRootAccepting(root);
  EXPECT_EQ(CheckedWitness(automaton, false, &alphabet), "<a/>");
}

TEST(EmptinessTest, RootGuardedTransitionNeedsARootAcceptingTarget) {
  Alphabet alphabet;
  LabelId a = alphabet.Intern("a");
  HedgeAutomaton automaton;
  StateId top = automaton.AddState();
  StateId other = automaton.AddState();
  // Admits "/" and accepts the empty word, but `top` is not root-accepting.
  automaton.AddTransition(Guard::Label(Alphabet::kRootLabel),
                          Horizontal({HState(true)}), top);
  // Root-accepting, but its guard does not admit "/".
  automaton.AddTransition(Guard::Label(a), Horizontal({HState(true)}), other);
  automaton.AddRootAccepting(other);
  CheckedWitness(automaton, true, &alphabet);
}

TEST(EmptinessTest, MutuallyDependentStatesStayEmpty) {
  Alphabet alphabet;
  LabelId a = alphabet.Intern("a");
  LabelId b = alphabet.Intern("b");
  LabelId c = alphabet.Intern("c");
  HedgeAutomaton automaton;
  StateId qa = automaton.AddState();
  StateId qb = automaton.AddState();
  StateId root = automaton.AddState();
  // qa needs a qb child and qb needs a qa child: neither is ever inhabited.
  automaton.AddTransition(
      Guard::Label(a), Horizontal({HState(false, {{qb, 1}}), HState(true)}),
      qa);
  automaton.AddTransition(
      Guard::Label(b), Horizontal({HState(false, {{qa, 1}}), HState(true)}),
      qb);
  automaton.AddTransition(
      Guard::Any(), Horizontal({HState(false, {{qa, 1}}), HState(true)}),
      root);
  automaton.AddRootAccepting(root);
  CheckedWitness(automaton, true, &alphabet);

  // A leaf for qb breaks the cycle.
  automaton.AddTransition(Guard::Label(c), Horizontal({HState(true)}), qb);
  EXPECT_EQ(CheckedWitness(automaton, false, &alphabet), "<a><c/></a>");
}

}  // namespace
}  // namespace rtp::automata
