#ifndef RTP_PATTERN_EVALUATOR_H_
#define RTP_PATTERN_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "pattern/tree_pattern.h"
#include "regex/dense_dfa.h"
#include "xml/doc_index.h"
#include "xml/document.h"

namespace rtp::pattern {

// A mapping of Definition 2: image[w] is the document node that template
// node w maps to. Paths are implicit — between an ancestor and a descendant
// of a tree there is exactly one descending path, so a mapping is fully
// determined by the images.
struct Mapping {
  std::vector<xml::NodeId> image;
};

// Bottom-up realizability tables for evaluating a pattern on a document.
//
//  Delivers(v, w, s): inside the subtree rooted at v there is an endpoint u
//    such that the unique path v..u, fed to the DFA of edge (parent(w), w)
//    starting from state s (reading v's label first), is accepted and u
//    realizes w.
//  Realizes(v, w): v can serve as the image of template node w: its child
//    list contains, in order, distinct children delivering each outgoing
//    edge of w from its initial state.
//
// The tables cover the live region only. The root is in it, and so is
// every child of a region node whose label some edge DFA can move on
// (regex::DenseDfa::AnyLive). A node outside the region delivers nothing
// and no delivering path passes through it, so nothing at or below it is
// ever read, and there is no row for it. Region nodes get compact rows,
// numbered breadth-first: row 0 is the root, a row's region children form
// one contiguous kid range of rows, in sibling order, and every kid row
// comes after its parent's. A pattern with a `_` or `_*` edge reads every
// label, so its region is the whole tree. Building costs
// O(|region| * |R|) time and memory and answers "does D contain a trace
// of R" directly; enumeration is then guided by the tables so dead
// branches are never explored.
//
// The build runs on the dense kernel: each edge's regex::DenseDfa (flat
// column-major transition table) over an xml::DocIndex (frozen child-span
// / label-column snapshot). The Document overload snapshots the document
// itself; the DocIndex overload lets callers evaluating several patterns
// or FDs against one document share a single snapshot. Outputs are
// bit-identical either way.
class MatchTables {
 public:
  static MatchTables Build(const TreePattern& pattern,
                           const xml::Document& doc);
  static MatchTables Build(const TreePattern& pattern,
                           const xml::DocIndex& index);

  const TreePattern& pattern() const { return *pattern_; }
  const xml::Document& doc() const { return index_->doc(); }
  const xml::DocIndex& index() const { return *index_; }

  // True iff there is at least one mapping of the pattern on the document.
  bool HasTrace() const { return RealizesRow(0, TreePattern::kRoot); }

  // Rows of the live region; row 0 is the document root.
  size_t NumRows() const { return row_node_.size(); }
  xml::NodeId node(uint32_t row) const { return row_node_[row]; }
  // The region children of `row` are the rows [KidBegin(row), KidEnd(row)).
  uint32_t KidBegin(uint32_t row) const { return kid_begin_[row]; }
  uint32_t KidEnd(uint32_t row) const { return kid_begin_[row + 1]; }

  // Realizes(node(row), w) and Delivers(node(row), w, s) as defined above;
  // `s` is the DFA state of edge (parent(w), w) before reading the row's
  // label.
  bool RealizesRow(uint32_t row, PatternNodeId w) const {
    return GetBit(realizes_, row, node_words_, w);
  }
  bool DeliversRow(uint32_t row, PatternNodeId w, int32_t s) const {
    return GetBit(delivers_, row, pair_words_,
                  pair_offset_[w] + static_cast<uint32_t>(s));
  }

 private:
  static MatchTables BuildImpl(const TreePattern& pattern,
                               const xml::DocIndex& index,
                               std::shared_ptr<const xml::DocIndex> owned);

  static bool GetBit(const std::vector<uint64_t>& bits, uint32_t row,
                     size_t words, uint32_t index) {
    return (bits[row * words + index / 64] >> (index % 64)) & 1;
  }

  const TreePattern* pattern_ = nullptr;
  std::shared_ptr<const xml::DocIndex> owned_index_;  // Document overload
  const xml::DocIndex* index_ = nullptr;
  std::vector<const regex::DenseDfa*> edge_dfa_;  // per template node; [0] null
  std::vector<uint32_t> pair_offset_;  // per template node; [0] unused
  size_t pair_words_ = 0;
  size_t node_words_ = 0;
  std::vector<xml::NodeId> row_node_;  // row -> document node
  std::vector<uint32_t> kid_begin_;    // NumRows() + 1 entries
  std::vector<uint64_t> delivers_;     // row-indexed bitsets
  std::vector<uint64_t> realizes_;

  friend class MappingEnumerator;
};

// Enumerates mappings (Definition 2) of a pattern on a document, guided by
// prebuilt MatchTables. It walks table rows and kid ranges, so it never
// visits a node outside the live region; mappings, the assign filter and
// callers see document node ids. The callbacks are templated callables
// (not std::function), so a ForEach pass allocates nothing beyond the
// reused task stack.
class MappingEnumerator {
 public:
  explicit MappingEnumerator(const MatchTables& tables) : tables_(tables) {}

  // `fn` is invoked once per mapping (signature bool(const Mapping&));
  // returning false stops enumeration. Returns the number of mappings
  // visited (all of them unless the callback stopped early).
  template <typename Fn>
  size_t ForEach(Fn&& fn);

  // Total number of mappings, stopping at `limit` if nonzero.
  size_t Count(size_t limit = 0);

  // Optional pruning hook: called whenever a template node is tentatively
  // assigned an image; returning false discards every mapping extending
  // the assignment. Used e.g. to restrict enumeration to mappings whose
  // context image lies in a given set (incremental FD maintenance). Cold
  // path, so type erasure is fine here.
  using AssignFilter = std::function<bool(PatternNodeId, xml::NodeId)>;
  void set_assign_filter(AssignFilter filter) {
    assign_filter_ = std::move(filter);
  }

 private:
  template <typename Fn>
  bool ExpandTasks(size_t task_index, Fn& fn);
  template <typename Fn>
  bool ChooseEdge(PatternNodeId w, uint32_t row, size_t edge_index,
                  uint32_t from_kid, size_t task_index, Fn& fn);
  template <typename Yield>
  bool ForEachEndpoint(uint32_t row, PatternNodeId w, int32_t s,
                       Yield&& yield);

  const MatchTables& tables_;
  AssignFilter assign_filter_;
  Mapping current_;
  std::vector<std::pair<PatternNodeId, uint32_t>> tasks_;  // (w, image row)
  size_t visited_ = 0;
  // Per-ForEach work tallies, flushed to obs counters in one batch so the
  // enumeration recursion never touches an atomic.
  size_t assignments_tried_ = 0;
  size_t assignments_filtered_ = 0;
};

// Identification phase (a) of evaluation: the distinct tuples of document
// nodes selected by the pattern (the roots of the subtree tuples of R(D)),
// in document order — lexicographic by the preorder ranks of the tuple's
// nodes — with no duplicates. Tuple i is nodes[i * arity, (i + 1) * arity);
// `count` is kept separately because a pattern with no select clause has
// arity 0 and selects one empty tuple when it has a mapping.
struct SelectedTuples {
  size_t arity = 0;
  size_t count = 0;
  std::vector<xml::NodeId> nodes;
};

// Builds the tables and selects over a shared document snapshot. When
// `profile` is non-null the evaluation runs under an obs::ProfileScope and
// fills it with the phase tree (pattern.build_tables / pattern.enumerate),
// metric deltas, and guard accounting. Enumeration collects every
// mapping's selected images into one flat buffer, then sorts the rows once
// on the snapshot's rank column (xml::DocIndex::rank) and keeps adjacent
// uniques.
SelectedTuples SelectTuples(const TreePattern& pattern,
                            const xml::DocIndex& index,
                            obs::QueryProfile* profile = nullptr);

// SelectTuples' result as one vector per tuple, same order. The Document
// overloads snapshot the document inside the pattern.build_tables phase;
// the DocIndex overloads share a prebuilt snapshot (multi-pattern
// callers). Results are identical either way, and a null `profile` is
// identical to the overloads without one.
std::vector<std::vector<xml::NodeId>> EvaluateSelected(
    const TreePattern& pattern, const xml::Document& doc);
std::vector<std::vector<xml::NodeId>> EvaluateSelected(
    const TreePattern& pattern, const xml::DocIndex& index);
std::vector<std::vector<xml::NodeId>> EvaluateSelected(
    const TreePattern& pattern, const xml::Document& doc,
    obs::QueryProfile* profile);
std::vector<std::vector<xml::NodeId>> EvaluateSelected(
    const TreePattern& pattern, const xml::DocIndex& index,
    obs::QueryProfile* profile);

// Evaluates one pattern against many documents on at most `jobs`
// threads, the calling thread included (`jobs` <= 1 runs serially).
// Results are indexed like `docs` and bit-identical to serial
// EvaluateSelected calls for every jobs value. `docs` must not repeat a
// Document (its lazily built snapshot is not internally synchronized).
std::vector<std::vector<std::vector<xml::NodeId>>> EvaluateSelectedBatch(
    const TreePattern& pattern, const std::vector<const xml::Document*>& docs,
    int jobs = 1);

// Options for the guarded batch overload. The budget applies per document
// (deadline measured from that document's start), so one pathological
// document trips alone while the rest of the batch completes; the cancel
// token is shared, so cancelling drains the whole batch quickly.
struct EvalBatchOptions {
  int jobs = 1;
  guard::ExecutionBudget budget;  // per document; default unlimited
  guard::CancelToken* cancel = nullptr;
  // When non-null, resized to docs.size(); slot i receives document i's
  // QueryProfile (captured on the thread that evaluated it, so batch
  // items are individually attributed at any jobs value).
  std::vector<obs::QueryProfile>* profiles = nullptr;
};

// Guarded batch evaluation. When `statuses` is non-null it is resized to
// docs.size(); slot i holds OK iff results[i] is trustworthy, else the
// resource status that tripped that document (whose result slot is empty).
std::vector<std::vector<std::vector<xml::NodeId>>> EvaluateSelectedBatch(
    const TreePattern& pattern, const std::vector<const xml::Document*>& docs,
    const EvalBatchOptions& options, std::vector<Status>* statuses = nullptr);

// The trace of a mapping: the smallest subtree of the document containing
// the image of the template (union of the root-to-image paths). Returned
// sorted by node id.
std::vector<xml::NodeId> TraceOf(const xml::Document& doc,
                                 const Mapping& mapping);

// ---------------------------------------------------------------------------
// MappingEnumerator template implementation.

template <typename Fn>
size_t MappingEnumerator::ForEach(Fn&& fn) {
  visited_ = 0;
  assignments_tried_ = 0;
  assignments_filtered_ = 0;
  RTP_OBS_COUNT("pattern.eval.enumerations");
  if (!tables_.HasTrace()) {
    RTP_OBS_COUNT("pattern.eval.no_trace");
    return 0;
  }
  const xml::NodeId root = tables_.node(0);
  if (assign_filter_ && !assign_filter_(TreePattern::kRoot, root)) {
    return 0;
  }
  current_.image.assign(tables_.pattern().NumNodes(), xml::kInvalidNode);
  current_.image[TreePattern::kRoot] = root;
  tasks_.clear();
  tasks_.emplace_back(TreePattern::kRoot, 0);
  ExpandTasks(0, fn);
  RTP_OBS_COUNT_N("pattern.eval.mappings_visited", visited_);
  RTP_OBS_COUNT_N("pattern.eval.assignments_tried", assignments_tried_);
  RTP_OBS_COUNT_N("pattern.eval.assignments_filtered", assignments_filtered_);
  return visited_;
}

template <typename Fn>
bool MappingEnumerator::ExpandTasks(size_t task_index, Fn& fn) {
  if (task_index == tasks_.size()) {
    // One guard step per complete mapping; a trip aborts enumeration and
    // the caller surfaces guard::CurrentStatus() instead of the partial
    // tuple set.
    if (!guard::KeepGoing()) return false;
    ++visited_;
    return fn(static_cast<const Mapping&>(current_));
  }
  auto [w, row] = tasks_[task_index];
  return ChooseEdge(w, row, 0, tables_.KidBegin(row), task_index, fn);
}

template <typename Fn>
bool MappingEnumerator::ChooseEdge(PatternNodeId w, uint32_t row,
                                   size_t edge_index, uint32_t from_kid,
                                   size_t task_index, Fn& fn) {
  const std::vector<PatternNodeId>& edges = tables_.pattern().children(w);
  if (edge_index == edges.size()) return ExpandTasks(task_index + 1, fn);

  PatternNodeId target = edges[edge_index];
  int32_t init = tables_.edge_dfa_[target]->initial();
  const uint32_t kid_end = tables_.KidEnd(row);
  for (uint32_t kid = from_kid; kid < kid_end; ++kid) {
    if (!tables_.DeliversRow(kid, target, init)) continue;
    bool keep_going =
        ForEachEndpoint(kid, target, init, [&](uint32_t endpoint) {
          const xml::NodeId image = tables_.node(endpoint);
          ++assignments_tried_;
          if (assign_filter_ && !assign_filter_(target, image)) {
            ++assignments_filtered_;
            return true;  // skip this assignment, keep enumerating others
          }
          current_.image[target] = image;
          tasks_.emplace_back(target, endpoint);
          bool cont =
              ChooseEdge(w, row, edge_index + 1, kid + 1, task_index, fn);
          tasks_.pop_back();
          current_.image[target] = xml::kInvalidNode;
          return cont;
        });
    if (!keep_going) return false;
  }
  return true;
}

template <typename Yield>
bool MappingEnumerator::ForEachEndpoint(uint32_t row, PatternNodeId w,
                                        int32_t s, Yield&& yield) {
  const regex::DenseDfa& dfa = *tables_.edge_dfa_[w];
  // Endpoint walks can visit far more nodes than mappings emitted, so
  // they count guard steps too (deep documents, sparse matches).
  if (!guard::KeepGoing()) return false;
  int32_t next = dfa.Next(s, tables_.index().label(tables_.node(row)));
  if (next == regex::kDeadState) return true;
  if (dfa.accepting(next) && tables_.RealizesRow(row, w)) {
    if (!yield(row)) return false;
  }
  for (uint32_t kid = tables_.KidBegin(row); kid < tables_.KidEnd(row);
       ++kid) {
    if (!tables_.DeliversRow(kid, w, next)) continue;
    if (!ForEachEndpoint(kid, w, next, yield)) return false;
  }
  return true;
}

}  // namespace rtp::pattern

#endif  // RTP_PATTERN_EVALUATOR_H_
