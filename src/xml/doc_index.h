#ifndef RTP_XML_DOC_INDEX_H_
#define RTP_XML_DOC_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/alphabet.h"
#include "xml/document.h"

namespace rtp::xml {

// Frozen structure-of-arrays snapshot of a Document's live tree, built
// once and shared by every pattern / FD evaluated against the document:
//
//   - contiguous child spans (one array slice per node, in sibling order),
//     which MatchTables::Build walks top-down from the root to find a
//     pattern's live region,
//   - a dense label column,
//   - a preorder rank column: document order (the "<" of Definition 2) is
//     rank order, and a subtree occupies one contiguous range of ranks.
//
// Lifetime and invalidation: a DocIndex must not outlive its Document, and
// it describes the tree as of Build time. Any structural mutation —
// AddChild, DetachSubtree, ReplaceSubtree, InsertSubtree, Compact,
// set_label, i.e. everything update::ApplyOperationAt does — invalidates
// the snapshot; rebuild it before evaluating again (see
// docs/PERFORMANCE.md). Value-only mutation (set_value) keeps it valid:
// the snapshot stores structure and labels, never values.
//
// A DocIndex is immutable after Build and safe to share across threads
// (unlike Document, whose lazily built snapshot slot is unsynchronized).
class DocIndex {
 public:
  DocIndex() = default;

  static DocIndex Build(const Document& doc);

  const Document& doc() const { return *doc_; }
  NodeId root() const { return root_; }

  // Arena size at Build time (bitset/table sizing).
  size_t ArenaSize() const { return child_begin_.size(); }
  // Every live node but the root is the child of exactly one live node.
  size_t LiveNodeCount() const { return children_.size() + 1; }

  // Children of `v` in sibling order (empty for leaves and for nodes that
  // were detached at Build time).
  std::span<const NodeId> Children(NodeId v) const {
    return std::span<const NodeId>(children_.data() + child_begin_[v],
                                   child_count_[v]);
  }
  size_t ChildCount(NodeId v) const { return child_count_[v]; }

  LabelId label(NodeId v) const { return labels_[v]; }

  // Preorder position of `v` in the live tree (the root is 0), or
  // kNoRank for a node that was detached at Build time.
  static constexpr uint32_t kNoRank = UINT32_MAX;
  uint32_t rank(NodeId v) const { return ranks_[v]; }

 private:
  const Document* doc_ = nullptr;
  NodeId root_ = kInvalidNode;
  std::vector<uint32_t> child_begin_;  // arena-indexed slice starts
  std::vector<uint32_t> child_count_;  // arena-indexed slice lengths
  std::vector<NodeId> children_;       // all child lists, concatenated
  std::vector<LabelId> labels_;        // arena-indexed
  std::vector<uint32_t> ranks_;        // arena-indexed
};

}  // namespace rtp::xml

#endif  // RTP_XML_DOC_INDEX_H_
