#ifndef RTP_XML_DOCUMENT_H_
#define RTP_XML_DOCUMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/alphabet.h"
#include "common/check.h"

namespace rtp::xml {

class DocIndex;

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNode = UINT32_MAX;

// Node types of the paper's model: internal nodes are elements, leaves are
// attributes, text nodes, or (childless) elements.
enum class NodeType : uint8_t {
  kElement = 0,
  kAttribute = 1,
  kText = 2,
};

// An XML document per Section 2.1: an unranked ordered tree labeled over a
// shared Alphabet, with string values on attribute/text leaves. The root is
// always labeled "/" per the paper's convention.
//
// Nodes live in an arena indexed by NodeId. Structural mutation (the update
// module) detaches subtrees in place; detached nodes stay in the arena as
// garbage and are excluded from traversals. Document order (the "<" order
// of Definition 2) is the preorder rank column of the lazily built
// snapshot (see Snapshot()).
class Document {
 public:
  // `alphabet` must outlive the document and is shared with patterns,
  // schemas and automata evaluated against it.
  explicit Document(Alphabet* alphabet);

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  const Alphabet& alphabet() const { return *alphabet_; }
  Alphabet* mutable_alphabet() { return alphabet_; }
  // The shared interning context is not part of the document's logical
  // state, so handing out a mutable pointer from a const document is fine.
  Alphabet* shared_alphabet() const { return alphabet_; }

  NodeId root() const { return root_; }

  // Appends a new child under `parent`. Attribute and text nodes must carry
  // a value and become leaves; element nodes may receive children later.
  NodeId AddChild(NodeId parent, std::string_view label, NodeType type,
                  std::string_view value = "");
  NodeId AddChild(NodeId parent, LabelId label, NodeType type,
                  std::string_view value = "");

  // Convenience wrappers.
  NodeId AddElement(NodeId parent, std::string_view label) {
    return AddChild(parent, label, NodeType::kElement);
  }
  NodeId AddAttribute(NodeId parent, std::string_view label,
                      std::string_view value) {
    return AddChild(parent, label, NodeType::kAttribute, value);
  }
  NodeId AddText(NodeId parent, std::string_view value) {
    return AddChild(parent, Alphabet::kTextLabel, NodeType::kText, value);
  }

  // Accessors. All ids must refer to live (attached) or detached-but-valid
  // arena nodes.
  LabelId label(NodeId n) const { return nodes_[n].label; }
  const std::string& label_name(NodeId n) const {
    return alphabet_->Name(nodes_[n].label);
  }
  NodeType type(NodeId n) const { return nodes_[n].type; }
  const std::string& value(NodeId n) const { return nodes_[n].value; }
  NodeId parent(NodeId n) const { return nodes_[n].parent; }
  NodeId first_child(NodeId n) const { return nodes_[n].first_child; }
  NodeId last_child(NodeId n) const { return nodes_[n].last_child; }
  NodeId next_sibling(NodeId n) const { return nodes_[n].next_sibling; }
  NodeId prev_sibling(NodeId n) const { return nodes_[n].prev_sibling; }
  bool is_leaf(NodeId n) const { return nodes_[n].first_child == kInvalidNode; }

  void set_value(NodeId n, std::string_view value) {
    nodes_[n].value = std::string(value);
  }
  void set_label(NodeId n, std::string_view label) {
    nodes_[n].label = alphabet_->Intern(label);
    InvalidateSnapshot();
  }

  // Children of `n` in sibling order.
  std::vector<NodeId> Children(NodeId n) const;
  size_t ChildCount(NodeId n) const;

  // Number of nodes currently attached to the tree.
  size_t LiveNodeCount() const;

  // Total arena size (live + detached garbage).
  size_t ArenaSize() const { return nodes_.size(); }

  // Depth of node `n` (root has depth 0).
  size_t Depth(NodeId n) const;

  // Maximum depth over live nodes.
  size_t Height() const;

  bool IsAncestorOrSelf(NodeId ancestor, NodeId n) const;

  // Document order ("descendant or following"): preorder position
  // comparison. Both nodes must be attached.
  bool DocumentOrderLess(NodeId a, NodeId b) const;

  // Preorder index of an attached node (root is 0).
  uint32_t PreorderIndex(NodeId n) const;

  // Shared frozen snapshot of the live tree (see doc_index.h), built
  // lazily on first use and dropped by every structural mutation, so
  // repeated evaluations against an unchanged document reuse one
  // DocIndex. DocumentOrderLess and PreorderIndex read its rank column,
  // and build it if there is none. The lazy build is not synchronized, so
  // take the snapshot before handing the document to concurrent readers.
  std::shared_ptr<const DocIndex> Snapshot() const;

  // Appends a copy of src(src_node) under dst_parent of this document.
  // Returns the root of the copy. `src` may be this document, but src_node
  // must not be an ancestor of dst_parent.
  NodeId CopySubtree(const Document& src, NodeId src_node, NodeId dst_parent);

  // Detaches the subtree rooted at `n` (which must not be the root) from
  // the tree. The arena entries remain allocated but unreachable.
  void DetachSubtree(NodeId n);

  // Replaces the subtree rooted at `n` by a copy of repl(repl_root),
  // splicing the copy into n's position among its siblings. `n` must not be
  // the document root. Returns the id of the replacement root.
  NodeId ReplaceSubtree(NodeId n, const Document& repl, NodeId repl_root);

  // Inserts a copy of repl(repl_root) as a new child of `parent` before
  // `before` (or appended if before == kInvalidNode).
  NodeId InsertSubtree(NodeId parent, NodeId before, const Document& repl,
                       NodeId repl_root);

  // Reclaims arena space held by detached subtrees by rebuilding the arena
  // from the live tree. All NodeIds are invalidated; `remap` (optional)
  // receives old-id -> new-id for live nodes (kInvalidNode for garbage).
  void Compact(std::vector<NodeId>* remap = nullptr);

  // Deep copy of the live tree (detached arena garbage is not copied).
  Document Clone() const {
    Document copy(alphabet_);
    for (NodeId c = first_child(root_); c != kInvalidNode;
         c = next_sibling(c)) {
      copy.CopySubtree(*this, c, copy.root());
    }
    return copy;
  }

  // Preorder visit of the live tree; `visit` returns false to prune the
  // subtree below the node.
  template <typename Visitor>
  void Visit(Visitor&& visit) const {
    VisitFrom(root_, visit);
  }

  template <typename Visitor>
  void VisitFrom(NodeId start, Visitor&& visit) const {
    std::vector<NodeId> stack = {start};
    while (!stack.empty()) {
      NodeId n = stack.back();
      stack.pop_back();
      if (!visit(n)) continue;
      // Push children last to first so they pop in sibling order.
      for (NodeId c = nodes_[n].last_child; c != kInvalidNode;
           c = nodes_[c].prev_sibling) {
        stack.push_back(c);
      }
    }
  }

 private:
  struct Node {
    LabelId label = kInvalidLabel;
    NodeType type = NodeType::kElement;
    NodeId parent = kInvalidNode;
    NodeId first_child = kInvalidNode;
    NodeId last_child = kInvalidNode;
    NodeId next_sibling = kInvalidNode;
    NodeId prev_sibling = kInvalidNode;
    std::string value;
  };

  // The cached DocIndex points back at this document, so moving the
  // document must drop it (a fresh one is built on demand); a plain
  // shared_ptr member would carry the dangling back-pointer along.
  struct SnapshotSlot {
    mutable std::shared_ptr<const DocIndex> index;
    SnapshotSlot() = default;
    SnapshotSlot(SnapshotSlot&& other) noexcept { other.index.reset(); }
    SnapshotSlot& operator=(SnapshotSlot&& other) noexcept {
      index.reset();
      other.index.reset();
      return *this;
    }
  };

  NodeId NewNode(LabelId label, NodeType type, std::string_view value);
  void AppendExisting(NodeId parent, NodeId child);
  void InvalidateSnapshot() { snapshot_.index.reset(); }
  // The snapshot, built if there is none, without Snapshot()'s shared_ptr
  // copy and hit count.
  const DocIndex& Index() const;

  Alphabet* alphabet_;
  std::vector<Node> nodes_;
  NodeId root_;
  SnapshotSlot snapshot_;
};

}  // namespace rtp::xml

#endif  // RTP_XML_DOCUMENT_H_
