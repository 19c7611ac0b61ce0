#include "fd/fd_index.h"

#include <algorithm>
#include <set>

#include "common/hashing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/evaluator.h"
#include "xml/value_equality.h"

namespace rtp::fd {

using pattern::EqualityType;
using pattern::Mapping;
using pattern::SelectedNode;
using xml::Document;
using xml::NodeId;

FdIndex FdIndex::Build(const FunctionalDependency& fd, const Document& doc) {
  std::shared_ptr<const xml::DocIndex> snapshot = doc.Snapshot();
  return Build(fd, *snapshot);
}

FdIndex FdIndex::Build(const FunctionalDependency& fd,
                       const xml::DocIndex& doc_index) {
  RTP_OBS_COUNT("fd.index.builds");
  RTP_PHASE("fd.index.build");
  FdIndex index(fd);
  // A template branch hanging off the root-to-context chain (outside the
  // context subtree) makes updates in unrelated regions able to create or
  // destroy traces of arbitrary contexts — incremental scoping would be
  // unsound there.
  for (pattern::PatternNodeId w = 0; w < fd.pattern().NumNodes(); ++w) {
    if (!fd.pattern().IsAncestorOrSelf(w, fd.context()) &&
        !fd.pattern().IsAncestorOrSelf(fd.context(), w)) {
      index.supports_incremental_ = false;
      break;
    }
  }
  index.Recompute(doc_index, {}, /*restrict_contexts=*/false);
  index.RefreshVerdict();
  return index;
}

void FdIndex::Recompute(const xml::DocIndex& doc_index,
                        const std::vector<NodeId>& contexts,
                        bool restrict_contexts) {
  const Document& doc = doc_index.doc();
  std::set<NodeId> scope(contexts.begin(), contexts.end());
  if (restrict_contexts) {
    size_t summaries_before = summaries_.size();
    size_t erased = 0;
    for (NodeId c : contexts) erased += summaries_.erase(c);
    // Summaries that survive the erase are reused verbatim — the whole
    // point of the incremental pass.
    RTP_OBS_COUNT_N("fd.index.reuse_hits", summaries_before - erased);
    RTP_OBS_COUNT_N("fd.index.contexts_rescanned", contexts.size());
    last_pass_contexts_ = contexts.size();
  } else {
    RTP_OBS_COUNT("fd.index.full_recomputes");
    summaries_.clear();
    last_pass_contexts_ = 0;
  }

  pattern::MatchTables tables =
      pattern::MatchTables::Build(fd_->pattern(), doc_index);
  pattern::MappingEnumerator enumerator(tables);
  const pattern::PatternNodeId context_node = fd_->context();
  if (restrict_contexts) {
    enumerator.set_assign_filter(
        [&scope, context_node](pattern::PatternNodeId w, NodeId v) {
          // Prune whole subtrees of the search as soon as the context
          // image is fixed outside the scope.
          return w != context_node || scope.count(v) > 0;
        });
  }

  const std::vector<SelectedNode>& selected = fd_->pattern().selected();
  const size_t num_conditions = selected.size() - 1;
  const SelectedNode target = selected.back();

  xml::SubtreeHashCache hash_cache(doc);
  auto selected_key = [&](const SelectedNode& s, NodeId image) {
    return s.equality == EqualityType::kNode ? static_cast<uint64_t>(image)
                                             : hash_cache.Hash(image);
  };

  last_pass_mappings_ = 0;
  RTP_OBS_COUNT("fd.index.passes");
  enumerator.ForEach([&](const Mapping& m) {
    ++last_pass_mappings_;
    NodeId context_image = m.image[context_node];
    uint64_t key = 0;
    for (size_t i = 0; i < num_conditions; ++i) {
      key = HashMix(key, selected_key(selected[i], m.image[selected[i].node]));
    }
    uint64_t target_hash = selected_key(target, m.image[target.node]);
    ContextSummary& summary = summaries_[context_image];
    auto [it, inserted] = summary.groups.try_emplace(key, Group{target_hash});
    if (!inserted && it->second.target_hash != target_hash) {
      summary.consistent = false;
    }
    return true;
  });
  RTP_OBS_COUNT_N("fd.index.mappings_enumerated", last_pass_mappings_);
}

void FdIndex::RefreshVerdict() {
  satisfied_ = std::all_of(
      summaries_.begin(), summaries_.end(),
      [](const auto& entry) { return entry.second.consistent; });
}

bool FdIndex::Revalidate(const Document& doc,
                         const std::vector<NodeId>& updated_roots) {
  RTP_OBS_COUNT("fd.index.revalidations");
  RTP_PHASE("fd.index.revalidate");
  // The update mutated the tree, which dropped the document's cached
  // snapshot; this rebuilds it once for the pass (and for any later
  // evaluation against the unchanged document).
  std::shared_ptr<const xml::DocIndex> snapshot = doc.Snapshot();
  const xml::DocIndex& doc_index = *snapshot;
  if (!supports_incremental_) {
    RTP_OBS_COUNT("fd.index.fallback_full");
    Recompute(doc_index, {}, /*restrict_contexts=*/false);
    RefreshVerdict();
    return satisfied_;
  }
  RTP_OBS_COUNT("fd.index.incremental_passes");
  // Affected contexts: previously-indexed contexts on the root paths of
  // the updated roots or inside the updated regions, plus any current
  // context image in those regions or on those paths (newly created ones).
  std::set<NodeId> affected;
  for (NodeId root : updated_roots) {
    // Ancestors-or-self among known contexts.
    for (const auto& [context, _] : summaries_) {
      if (doc.IsAncestorOrSelf(context, root) ||
          doc.IsAncestorOrSelf(root, context)) {
        affected.insert(context);
      }
    }
  }
  // Contexts that newly appeared inside updated regions: find current
  // context images under the updated roots by evaluating the context
  // prefix of the pattern. Cheap approximation: any node below an updated
  // root is a candidate context; the assign filter below admits exactly
  // those plus the known affected set.
  for (NodeId root : updated_roots) {
    doc.VisitFrom(root, [&affected](NodeId n) {
      affected.insert(n);
      return true;
    });
    // Ancestors of the updated root may also host new traces that pass
    // through the modified region. Their summaries must be rebuilt too.
    for (NodeId cur = root;; cur = doc.parent(cur)) {
      affected.insert(cur);
      if (cur == doc.root()) break;
    }
  }

  Recompute(doc_index, std::vector<NodeId>(affected.begin(), affected.end()),
            /*restrict_contexts=*/true);
  RefreshVerdict();
  return satisfied_;
}

}  // namespace rtp::fd
