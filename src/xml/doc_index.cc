#include "xml/doc_index.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rtp::xml {

DocIndex DocIndex::Build(const Document& doc) {
  RTP_OBS_COUNT("xml.doc_index.builds");
  RTP_PHASE("xml.doc_index.build");
  DocIndex d;
  d.doc_ = &doc;
  d.root_ = doc.root();

  const size_t arena = doc.ArenaSize();
  d.child_begin_.assign(arena, 0);
  d.child_count_.assign(arena, 0);
  d.ranks_.assign(arena, kNoRank);
  d.labels_.resize(arena);
  for (NodeId n = 0; n < arena; ++n) d.labels_[n] = doc.label(n);

  // One preorder pass over the live tree fills the contiguous child spans
  // and the ranks. Children are pushed last to first, so they pop in
  // sibling order.
  d.children_.reserve(arena);
  std::vector<NodeId> stack = {d.root_};
  uint32_t next_rank = 0;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    d.ranks_[v] = next_rank++;
    const size_t begin = d.children_.size();
    for (NodeId c = doc.first_child(v); c != kInvalidNode;
         c = doc.next_sibling(c)) {
      d.children_.push_back(c);
    }
    d.child_begin_[v] = static_cast<uint32_t>(begin);
    d.child_count_[v] = static_cast<uint32_t>(d.children_.size() - begin);
    for (size_t i = d.children_.size(); i-- > begin;) {
      stack.push_back(d.children_[i]);
    }
  }
  RTP_OBS_COUNT_N("xml.doc_index.nodes_indexed", d.LiveNodeCount());
  return d;
}

}  // namespace rtp::xml
