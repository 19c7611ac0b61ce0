#ifndef RTP_FD_FD_INDEX_H_
#define RTP_FD_FD_INDEX_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "fd/fd_checker.h"
#include "fd/functional_dependency.h"
#include "xml/doc_index.h"
#include "xml/document.h"

namespace rtp::fd {

// Incremental FD maintenance in the style of the paper's related work
// [14]: keep per-context group summaries built during a full verification
// pass, and after an update re-verify only the contexts whose subtrees the
// update touched.
//
// The group structure exploits condition (a) of Definition 5: two traces
// can only conflict when they share the SAME context image, so the
// summaries decompose per context and an update at node n can only change
// the summaries of context images on the root path of n (ancestors) —
// plus contexts newly created/destroyed inside replaced regions, which are
// also descendants of the updated roots.
//
// Comparisons use 64-bit subtree hashes (exact re-verification confirms
// reported violations; hash collisions can in principle mask a violation —
// the full CheckFd remains the authoritative check; this class is the
// performance baseline the paper argues the criterion avoids).
class FdIndex {
 public:
  // Builds the index with one full verification pass. The DocIndex
  // overload shares a prebuilt snapshot across several FdIndex builds
  // against one document (results are identical); the snapshot must be
  // current — rebuild it after any structural update.
  static FdIndex Build(const FunctionalDependency& fd,
                       const xml::Document& doc);
  static FdIndex Build(const FunctionalDependency& fd,
                       const xml::DocIndex& index);

  // Whether the indexed document satisfied the FD at build/last-revalidate
  // time.
  bool satisfied() const { return satisfied_; }

  // Re-validates after an in-place update whose modified regions are
  // rooted at `updated_roots` (see update::ApplyStats::updated_roots).
  // Only mappings whose context image is an ancestor-or-self or a
  // descendant of an updated root are re-enumerated. Returns the new
  // satisfaction verdict and updates the index.
  bool Revalidate(const xml::Document& doc,
                  const std::vector<xml::NodeId>& updated_roots);

  // Work counter of the last Build/Revalidate: mappings enumerated.
  size_t last_pass_mappings() const { return last_pass_mappings_; }
  // Contexts re-verified by the last Revalidate.
  size_t last_pass_contexts() const { return last_pass_contexts_; }

  // Incremental revalidation requires every template node to lie on the
  // root-to-context chain or below the context (true for all FDs built
  // from path formalisms). Otherwise Revalidate falls back to a full pass.
  bool supports_incremental() const { return supports_incremental_; }

 private:
  struct Group {
    uint64_t target_hash = 0;
  };
  // Per context image: condition-key hash -> target hash. consistent_
  // flags contexts holding an internal conflict.
  struct ContextSummary {
    std::unordered_map<uint64_t, Group> groups;
    bool consistent = true;
  };

  explicit FdIndex(const FunctionalDependency& fd) : fd_(&fd) {}

  // Recomputes summaries for the given context images (or all when
  // `restrict_contexts` is false), evaluating over `index` (a snapshot of
  // the document that must be current).
  void Recompute(const xml::DocIndex& index,
                 const std::vector<xml::NodeId>& contexts,
                 bool restrict_contexts);
  void RefreshVerdict();

  const FunctionalDependency* fd_;
  std::map<xml::NodeId, ContextSummary> summaries_;
  bool supports_incremental_ = true;
  bool satisfied_ = true;
  size_t last_pass_mappings_ = 0;
  size_t last_pass_contexts_ = 0;
};

}  // namespace rtp::fd

#endif  // RTP_FD_FD_INDEX_H_
