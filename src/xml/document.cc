#include "xml/document.h"

#include <algorithm>

#include "obs/metrics.h"
#include "xml/doc_index.h"

namespace rtp::xml {

const DocIndex& Document::Index() const {
  if (snapshot_.index == nullptr) {
    snapshot_.index = std::make_shared<const DocIndex>(DocIndex::Build(*this));
  }
  return *snapshot_.index;
}

std::shared_ptr<const DocIndex> Document::Snapshot() const {
  if (snapshot_.index != nullptr) RTP_OBS_COUNT("xml.doc_index.snapshot_hits");
  Index();
  return snapshot_.index;
}

Document::Document(Alphabet* alphabet) : alphabet_(alphabet) {
  RTP_CHECK(alphabet != nullptr);
  root_ = NewNode(Alphabet::kRootLabel, NodeType::kElement, "");
}

NodeId Document::NewNode(LabelId label, NodeType type, std::string_view value) {
  Node node;
  node.label = label;
  node.type = type;
  node.value = std::string(value);
  nodes_.push_back(std::move(node));
  InvalidateSnapshot();
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Document::AddChild(NodeId parent, std::string_view label, NodeType type,
                          std::string_view value) {
  return AddChild(parent, alphabet_->Intern(label), type, value);
}

NodeId Document::AddChild(NodeId parent, LabelId label, NodeType type,
                          std::string_view value) {
  RTP_CHECK(parent < nodes_.size());
  RTP_CHECK_MSG(nodes_[parent].type == NodeType::kElement,
                "only element nodes can have children");
  NodeId child = NewNode(label, type, value);
  AppendExisting(parent, child);
  return child;
}

void Document::AppendExisting(NodeId parent, NodeId child) {
  Node& p = nodes_[parent];
  Node& c = nodes_[child];
  c.parent = parent;
  c.prev_sibling = p.last_child;
  c.next_sibling = kInvalidNode;
  if (p.last_child != kInvalidNode) {
    nodes_[p.last_child].next_sibling = child;
  } else {
    p.first_child = child;
  }
  p.last_child = child;
  InvalidateSnapshot();
}

std::vector<NodeId> Document::Children(NodeId n) const {
  std::vector<NodeId> out;
  for (NodeId c = nodes_[n].first_child; c != kInvalidNode;
       c = nodes_[c].next_sibling) {
    out.push_back(c);
  }
  return out;
}

size_t Document::ChildCount(NodeId n) const {
  size_t count = 0;
  for (NodeId c = nodes_[n].first_child; c != kInvalidNode;
       c = nodes_[c].next_sibling) {
    ++count;
  }
  return count;
}

size_t Document::LiveNodeCount() const {
  size_t count = 0;
  Visit([&count](NodeId) {
    ++count;
    return true;
  });
  return count;
}

size_t Document::Depth(NodeId n) const {
  size_t depth = 0;
  for (NodeId p = nodes_[n].parent; p != kInvalidNode; p = nodes_[p].parent) {
    ++depth;
  }
  return depth;
}

size_t Document::Height() const {
  size_t height = 0;
  Visit([&](NodeId n) {
    height = std::max(height, Depth(n));
    return true;
  });
  return height;
}

bool Document::IsAncestorOrSelf(NodeId ancestor, NodeId n) const {
  for (NodeId cur = n; cur != kInvalidNode; cur = nodes_[cur].parent) {
    if (cur == ancestor) return true;
  }
  return false;
}

bool Document::DocumentOrderLess(NodeId a, NodeId b) const {
  const DocIndex& index = Index();
  RTP_CHECK_MSG(index.rank(a) != DocIndex::kNoRank &&
                    index.rank(b) != DocIndex::kNoRank,
                "document order of a detached node");
  return index.rank(a) < index.rank(b);
}

uint32_t Document::PreorderIndex(NodeId n) const {
  const uint32_t rank = Index().rank(n);
  RTP_CHECK(rank != DocIndex::kNoRank);
  return rank;
}

void Document::Compact(std::vector<NodeId>* remap) {
  std::vector<NodeId> map(nodes_.size(), kInvalidNode);
  std::vector<Node> compacted;
  compacted.reserve(nodes_.size());
  // Preorder rebuild: parents precede children, so parent links resolve.
  VisitFrom(root_, [&](NodeId n) {
    map[n] = static_cast<NodeId>(compacted.size());
    Node node;
    node.label = nodes_[n].label;
    node.type = nodes_[n].type;
    node.value = std::move(nodes_[n].value);
    compacted.push_back(std::move(node));
    return true;
  });
  // Second pass: rebuild structural links through the map.
  for (NodeId old_id = 0; old_id < nodes_.size(); ++old_id) {
    NodeId new_id = map[old_id];
    if (new_id == kInvalidNode) continue;
    const Node& old_node = nodes_[old_id];
    Node& node = compacted[new_id];
    auto translate = [&map](NodeId id) {
      return id == kInvalidNode ? kInvalidNode : map[id];
    };
    node.parent = translate(old_node.parent);
    node.first_child = translate(old_node.first_child);
    node.last_child = translate(old_node.last_child);
    node.next_sibling = translate(old_node.next_sibling);
    node.prev_sibling = translate(old_node.prev_sibling);
  }
  nodes_ = std::move(compacted);
  root_ = map[root_];
  InvalidateSnapshot();
  if (remap != nullptr) *remap = std::move(map);
}

NodeId Document::CopySubtree(const Document& src, NodeId src_node,
                             NodeId dst_parent) {
  LabelId label = (&src == this || src.alphabet_ == alphabet_)
                      ? src.label(src_node)
                      : alphabet_->Intern(src.label_name(src_node));
  NodeId copy =
      AddChild(dst_parent, label, src.type(src_node), src.value(src_node));
  for (NodeId c = src.first_child(src_node); c != kInvalidNode;
       c = src.next_sibling(c)) {
    CopySubtree(src, c, copy);
  }
  return copy;
}

void Document::DetachSubtree(NodeId n) {
  RTP_CHECK_MSG(n != root_, "cannot detach the document root");
  Node& node = nodes_[n];
  RTP_CHECK_MSG(node.parent != kInvalidNode, "node already detached");
  Node& p = nodes_[node.parent];
  if (node.prev_sibling != kInvalidNode) {
    nodes_[node.prev_sibling].next_sibling = node.next_sibling;
  } else {
    p.first_child = node.next_sibling;
  }
  if (node.next_sibling != kInvalidNode) {
    nodes_[node.next_sibling].prev_sibling = node.prev_sibling;
  } else {
    p.last_child = node.prev_sibling;
  }
  node.parent = kInvalidNode;
  node.prev_sibling = kInvalidNode;
  node.next_sibling = kInvalidNode;
  InvalidateSnapshot();
}

NodeId Document::ReplaceSubtree(NodeId n, const Document& repl,
                                NodeId repl_root) {
  RTP_CHECK_MSG(n != root_, "cannot replace the document root");
  NodeId parent = nodes_[n].parent;
  NodeId after = nodes_[n].next_sibling;
  DetachSubtree(n);
  return InsertSubtree(parent, after, repl, repl_root);
}

NodeId Document::InsertSubtree(NodeId parent, NodeId before,
                               const Document& repl, NodeId repl_root) {
  NodeId copy = CopySubtree(repl, repl_root, parent);
  if (before == kInvalidNode) return copy;  // appended already
  // Move `copy` (currently the last child) just before `before`.
  DetachSubtree(copy);
  Node& c = nodes_[copy];
  Node& b = nodes_[before];
  c.parent = parent;
  c.next_sibling = before;
  c.prev_sibling = b.prev_sibling;
  if (b.prev_sibling != kInvalidNode) {
    nodes_[b.prev_sibling].next_sibling = copy;
  } else {
    nodes_[parent].first_child = copy;
  }
  b.prev_sibling = copy;
  InvalidateSnapshot();
  return copy;
}

}  // namespace rtp::xml
