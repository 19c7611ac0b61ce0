#include "xml/document.h"

#include <gtest/gtest.h>

#include "xml/value_equality.h"
#include "xml/xml_io.h"

namespace rtp::xml {
namespace {

TEST(DocumentTest, RootIsSlashLabeledElement) {
  Alphabet alphabet;
  Document doc(&alphabet);
  EXPECT_EQ(doc.label(doc.root()), Alphabet::kRootLabel);
  EXPECT_EQ(doc.label_name(doc.root()), "/");
  EXPECT_EQ(doc.type(doc.root()), NodeType::kElement);
  EXPECT_EQ(doc.LiveNodeCount(), 1u);
}

TEST(DocumentTest, AddChildrenBuildsOrderedTree) {
  Alphabet alphabet;
  Document doc(&alphabet);
  NodeId session = doc.AddElement(doc.root(), "session");
  NodeId c1 = doc.AddElement(session, "candidate");
  NodeId c2 = doc.AddElement(session, "candidate");
  doc.AddAttribute(c1, "@IDN", "001");
  doc.AddAttribute(c2, "@IDN", "012");

  EXPECT_EQ(doc.Children(session), (std::vector<NodeId>{c1, c2}));
  EXPECT_EQ(doc.parent(c1), session);
  EXPECT_EQ(doc.next_sibling(c1), c2);
  EXPECT_EQ(doc.prev_sibling(c2), c1);
  EXPECT_EQ(doc.ChildCount(session), 2u);
  EXPECT_EQ(doc.Depth(c1), 2u);
  EXPECT_EQ(doc.Height(), 3u);
  EXPECT_EQ(doc.LiveNodeCount(), 6u);
}

TEST(DocumentTest, DocumentOrderIsPreorder) {
  Alphabet alphabet;
  Document doc(&alphabet);
  NodeId a = doc.AddElement(doc.root(), "a");
  NodeId a1 = doc.AddElement(a, "x");
  NodeId b = doc.AddElement(doc.root(), "b");
  EXPECT_TRUE(doc.DocumentOrderLess(doc.root(), a));
  EXPECT_TRUE(doc.DocumentOrderLess(a, a1));
  EXPECT_TRUE(doc.DocumentOrderLess(a1, b));
  EXPECT_FALSE(doc.DocumentOrderLess(b, a1));
  EXPECT_EQ(doc.PreorderIndex(doc.root()), 0u);
  EXPECT_EQ(doc.PreorderIndex(b), 3u);
}

TEST(DocumentTest, IsAncestorOrSelf) {
  Alphabet alphabet;
  Document doc(&alphabet);
  NodeId a = doc.AddElement(doc.root(), "a");
  NodeId b = doc.AddElement(a, "b");
  NodeId c = doc.AddElement(doc.root(), "c");
  EXPECT_TRUE(doc.IsAncestorOrSelf(a, b));
  EXPECT_TRUE(doc.IsAncestorOrSelf(b, b));
  EXPECT_TRUE(doc.IsAncestorOrSelf(doc.root(), c));
  EXPECT_FALSE(doc.IsAncestorOrSelf(b, a));
  EXPECT_FALSE(doc.IsAncestorOrSelf(a, c));
}

TEST(DocumentTest, DetachSubtreeRemovesFromTraversal) {
  Alphabet alphabet;
  Document doc(&alphabet);
  NodeId a = doc.AddElement(doc.root(), "a");
  NodeId b = doc.AddElement(doc.root(), "b");
  doc.AddElement(b, "x");
  NodeId c = doc.AddElement(doc.root(), "c");
  doc.DetachSubtree(b);
  EXPECT_EQ(doc.Children(doc.root()), (std::vector<NodeId>{a, c}));
  EXPECT_EQ(doc.LiveNodeCount(), 3u);
  EXPECT_GT(doc.ArenaSize(), doc.LiveNodeCount());
}

TEST(DocumentTest, CopySubtreeDeepCopies) {
  Alphabet alphabet;
  Document src(&alphabet);
  NodeId e = src.AddElement(src.root(), "exam");
  src.AddAttribute(e, "@id", "7");
  NodeId m = src.AddElement(e, "mark");
  src.AddText(m, "15");

  Document dst(&alphabet);
  NodeId copy = dst.CopySubtree(src, e, dst.root());
  EXPECT_TRUE(ValueEqual(src, e, dst, copy));
  // Mutating the copy does not affect the source.
  dst.set_value(dst.first_child(copy), "8");
  EXPECT_FALSE(ValueEqual(src, e, dst, copy));
}

TEST(DocumentTest, ReplaceSubtreeSplicesInPlace) {
  Alphabet alphabet;
  Document doc(&alphabet);
  NodeId a = doc.AddElement(doc.root(), "a");
  NodeId b = doc.AddElement(doc.root(), "b");
  NodeId c = doc.AddElement(doc.root(), "c");
  (void)a;
  (void)c;

  Document repl(&alphabet);
  NodeId r = repl.AddElement(repl.root(), "new");
  repl.AddText(r, "v");

  NodeId inserted = doc.ReplaceSubtree(b, repl, r);
  std::vector<NodeId> kids = doc.Children(doc.root());
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(doc.label_name(kids[1]), "new");
  EXPECT_EQ(kids[1], inserted);
  EXPECT_EQ(doc.label_name(kids[0]), "a");
  EXPECT_EQ(doc.label_name(kids[2]), "c");
}

TEST(DocumentTest, InsertSubtreePositions) {
  Alphabet alphabet;
  Document doc(&alphabet);
  NodeId a = doc.AddElement(doc.root(), "a");
  Document repl(&alphabet);
  NodeId x = repl.AddElement(repl.root(), "x");

  // Insert before a, then append at end.
  doc.InsertSubtree(doc.root(), a, repl, x);
  doc.InsertSubtree(doc.root(), kInvalidNode, repl, x);
  std::vector<NodeId> kids = doc.Children(doc.root());
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(doc.label_name(kids[0]), "x");
  EXPECT_EQ(doc.label_name(kids[1]), "a");
  EXPECT_EQ(doc.label_name(kids[2]), "x");
}

TEST(ValueEqualityTest, LeafValueEquality) {
  Alphabet alphabet;
  Document doc(&alphabet);
  NodeId e = doc.AddElement(doc.root(), "e");
  NodeId t1 = doc.AddText(e, "hello");
  NodeId t2 = doc.AddText(e, "hello");
  NodeId t3 = doc.AddText(e, "world");
  NodeId a1 = doc.AddAttribute(e, "@x", "hello");
  EXPECT_TRUE(ValueEqual(doc, t1, t2));
  EXPECT_FALSE(ValueEqual(doc, t1, t3));
  // Same value but different label/type.
  EXPECT_FALSE(ValueEqual(doc, t1, a1));
}

TEST(ValueEqualityTest, ElementStructuralEquality) {
  Alphabet alphabet;
  Document doc(&alphabet);
  auto make_exam = [&](std::string_view mark, std::string_view rank) {
    NodeId e = doc.AddElement(doc.root(), "exam");
    NodeId m = doc.AddElement(e, "mark");
    doc.AddText(m, mark);
    NodeId r = doc.AddElement(e, "rank");
    doc.AddText(r, rank);
    return e;
  };
  NodeId e1 = make_exam("15", "2");
  NodeId e2 = make_exam("15", "2");
  NodeId e3 = make_exam("15", "3");
  EXPECT_TRUE(ValueEqual(doc, e1, e2));
  EXPECT_FALSE(ValueEqual(doc, e1, e3));
  EXPECT_EQ(SubtreeHash(doc, e1), SubtreeHash(doc, e2));
  EXPECT_EQ(CanonicalForm(doc, e1), CanonicalForm(doc, e2));
  EXPECT_NE(CanonicalForm(doc, e1), CanonicalForm(doc, e3));
}

TEST(ValueEqualityTest, ChildOrderMatters) {
  Alphabet alphabet;
  Document doc(&alphabet);
  NodeId e1 = doc.AddElement(doc.root(), "e");
  doc.AddElement(e1, "a");
  doc.AddElement(e1, "b");
  NodeId e2 = doc.AddElement(doc.root(), "e");
  doc.AddElement(e2, "b");
  doc.AddElement(e2, "a");
  EXPECT_FALSE(ValueEqual(doc, e1, e2));
}

TEST(ValueEqualityTest, DifferentChildCounts) {
  Alphabet alphabet;
  Document doc(&alphabet);
  NodeId e1 = doc.AddElement(doc.root(), "e");
  doc.AddElement(e1, "a");
  NodeId e2 = doc.AddElement(doc.root(), "e");
  doc.AddElement(e2, "a");
  doc.AddElement(e2, "a");
  EXPECT_FALSE(ValueEqual(doc, e1, e2));
  EXPECT_FALSE(ValueEqual(doc, e2, e1));
}

TEST(XmlIoTest, ParseSimpleDocument) {
  Alphabet alphabet;
  auto doc = ParseXml(&alphabet, R"(
    <session date="2009-06">
      <candidate IDN="001">
        <level>B</level>
      </candidate>
    </session>)");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Document& d = *doc;
  std::vector<NodeId> top = d.Children(d.root());
  ASSERT_EQ(top.size(), 1u);
  NodeId session = top[0];
  EXPECT_EQ(d.label_name(session), "session");
  std::vector<NodeId> kids = d.Children(session);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(d.label_name(kids[0]), "@date");
  EXPECT_EQ(d.type(kids[0]), NodeType::kAttribute);
  EXPECT_EQ(d.value(kids[0]), "2009-06");
  EXPECT_EQ(d.label_name(kids[1]), "candidate");
  std::vector<NodeId> ckids = d.Children(kids[1]);
  ASSERT_EQ(ckids.size(), 2u);
  NodeId level = ckids[1];
  EXPECT_EQ(d.label_name(level), "level");
  std::vector<NodeId> lk = d.Children(level);
  ASSERT_EQ(lk.size(), 1u);
  EXPECT_EQ(d.type(lk[0]), NodeType::kText);
  EXPECT_EQ(d.value(lk[0]), "B");
}

TEST(XmlIoTest, RoundTrip) {
  Alphabet alphabet;
  const char* kXml =
      "<a x=\"1\"><b>text</b><c/><d>mixed &amp; escaped &lt;</d></a>";
  auto doc = ParseXml(&alphabet, kXml);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::string out = WriteXml(*doc, /*indent=*/false);
  auto doc2 = ParseXml(&alphabet, out);
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString() << " in " << out;
  EXPECT_TRUE(ValueEqual(*doc, doc->root(), *doc2, doc2->root()));
}

// A text child of the root (a witness document or an update can make
// one) is written as its value, like any mixed content.
TEST(XmlIoTest, RootTextChildrenAreWrittenAsValues) {
  Alphabet alphabet;
  Document doc(&alphabet);
  doc.AddText(doc.root(), "v0");
  NodeId a = doc.AddElement(doc.root(), "a");
  doc.AddText(a, "v1");
  doc.AddText(a, "v2");
  EXPECT_EQ(WriteXml(doc, /*indent=*/false), "v0<a>v1v2</a>");
  EXPECT_EQ(WriteXml(doc), "v0<a>v1v2</a>\n");
}

TEST(XmlIoTest, SelfClosingAndComments) {
  Alphabet alphabet;
  auto doc = ParseXml(&alphabet,
                      "<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><b/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  NodeId a = doc->Children(doc->root())[0];
  ASSERT_EQ(doc->ChildCount(a), 1u);
  EXPECT_EQ(doc->label_name(doc->first_child(a)), "b");
}

TEST(XmlIoTest, ErrorsAreReported) {
  Alphabet alphabet;
  EXPECT_FALSE(ParseXml(&alphabet, "").ok());
  EXPECT_FALSE(ParseXml(&alphabet, "<a>").ok());
  EXPECT_FALSE(ParseXml(&alphabet, "<a></b>").ok());
  EXPECT_FALSE(ParseXml(&alphabet, "<a b=c></a>").ok());
  EXPECT_FALSE(ParseXml(&alphabet, "<a/><b/>").ok());
  EXPECT_FALSE(ParseXml(&alphabet, "<a>&unknown;</a>").ok());
}

TEST(XmlIoTest, WhitespaceOnlyTextDropped) {
  Alphabet alphabet;
  auto doc = ParseXml(&alphabet, "<a>\n  <b/>\n</a>");
  ASSERT_TRUE(doc.ok());
  NodeId a = doc->Children(doc->root())[0];
  EXPECT_EQ(doc->ChildCount(a), 1u);
}

}  // namespace
}  // namespace rtp::xml
