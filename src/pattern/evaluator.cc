#include "pattern/evaluator.h"

#include <algorithm>
#include <numeric>

#include "exec/parallel_for.h"
#include "guard/failpoints.h"
#include "obs/trace.h"

namespace rtp::pattern {

using xml::DocIndex;
using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;

MatchTables MatchTables::Build(const TreePattern& pattern,
                               const Document& doc) {
  // The phase covers the snapshot too: for profile consumers "build
  // tables" means everything up to a ready-to-enumerate state.
  RTP_PHASE("pattern.build_tables");
  std::shared_ptr<const DocIndex> owned = doc.Snapshot();
  const DocIndex& index = *owned;
  return BuildImpl(pattern, index, std::move(owned));
}

MatchTables MatchTables::Build(const TreePattern& pattern,
                               const DocIndex& index) {
  RTP_PHASE("pattern.build_tables");
  return BuildImpl(pattern, index, nullptr);
}

MatchTables MatchTables::BuildImpl(const TreePattern& pattern,
                                   const DocIndex& index,
                                   std::shared_ptr<const DocIndex> owned) {
  RTP_OBS_COUNT("pattern.eval.tables_built");
  RTP_OBS_COUNT("pattern.eval.dense.builds");
  RTP_FAILPOINT("pattern.tables.build");
  MatchTables t;
  t.pattern_ = &pattern;
  t.owned_index_ = std::move(owned);
  t.index_ = &index;

  const size_t num_template_nodes = pattern.NumNodes();
  t.edge_dfa_.assign(num_template_nodes, nullptr);
  t.pair_offset_.assign(num_template_nodes, 0);
  uint32_t pairs = 0;
  for (PatternNodeId w = 1; w < num_template_nodes; ++w) {
    t.edge_dfa_[w] = &pattern.edge(w).dense_dfa();
    t.pair_offset_[w] = pairs;
    pairs += static_cast<uint32_t>(t.edge_dfa_[w]->NumStates());
  }
  t.pair_words_ = (pairs + 63) / 64;
  t.node_words_ = (num_template_nodes + 63) / 64;

  // The live region, breadth-first from the root; row_node_ is the queue.
  // A child joins when some edge DFA can move on its label (memoised per
  // label: 0 unknown, 1 dead, 2 live). Rows abandoned by a trip keep
  // empty kid ranges.
  std::vector<uint8_t> label_live;
  auto live = [&](LabelId a) {
    if (a >= label_live.size()) label_live.resize(a + 1, 0);
    if (label_live[a] == 0) {
      label_live[a] = 1;
      for (PatternNodeId w = 1; w < num_template_nodes; ++w) {
        if (t.edge_dfa_[w]->AnyLive(a)) {
          label_live[a] = 2;
          break;
        }
      }
    }
    return label_live[a] == 2;
  };
  t.row_node_.push_back(index.root());
  for (uint32_t row = 0; row < t.row_node_.size(); ++row) {
    if (!guard::KeepGoing()) break;
    t.kid_begin_.push_back(static_cast<uint32_t>(t.row_node_.size()));
    for (NodeId c : index.Children(t.row_node_[row])) {
      if (live(index.label(c))) t.row_node_.push_back(c);
    }
  }
  const size_t rows = t.row_node_.size();
  t.kid_begin_.resize(rows + 1, static_cast<uint32_t>(rows));

  // Table shape, for profiles: rows = region nodes, columns = summed DFA
  // states across the pattern's edges.
  RTP_OBS_COUNT_N("pattern.eval.table_rows", rows);
  RTP_OBS_COUNT_N("pattern.eval.dense.dfa_states", pairs);
  // The bitsets are the dominant allocation: rows * (pairs + nodes) bits.
  guard::AccountMemory(static_cast<int64_t>(rows) *
                       static_cast<int64_t>(t.pair_words_ + t.node_words_) *
                       static_cast<int64_t>(sizeof(uint64_t)));
  t.delivers_.assign(rows * t.pair_words_, 0);
  t.realizes_.assign(rows * t.node_words_, 0);

  // Leaf template nodes realize every document node; precompute their
  // Realizes row mask once and restrict the per-row greedy matching to
  // internal template nodes.
  std::vector<uint64_t> leaf_mask(t.node_words_, 0);
  std::vector<PatternNodeId> internal_nodes;
  for (PatternNodeId w = 0; w < num_template_nodes; ++w) {
    if (pattern.children(w).empty()) {
      leaf_mask[w / 64] |= uint64_t{1} << (w % 64);
    } else {
      internal_nodes.push_back(w);
    }
  }
  std::vector<int32_t> init_state(num_template_nodes, 0);
  for (PatternNodeId w = 1; w < num_template_nodes; ++w) {
    init_state[w] = t.edge_dfa_[w]->initial();
  }

  size_t label_skips = 0;
  std::vector<uint64_t> child_or(t.pair_words_);
  // Rows in reverse, so every kid row is done before its parent's. Rows
  // abandoned by a trip stay all-zeroes — structurally valid; callers
  // discard them via guard::CurrentStatus().
  for (uint32_t row = static_cast<uint32_t>(rows); row-- > 0;) {
    if (!guard::KeepGoing()) break;
    const uint32_t kid_begin = t.KidBegin(row);
    const uint32_t kid_end = t.KidEnd(row);

    // OR of the kid rows' delivers bitsets.
    std::fill(child_or.begin(), child_or.end(), 0);
    for (uint32_t kid = kid_begin; kid < kid_end; ++kid) {
      const uint64_t* kid_row = t.delivers_.data() + kid * t.pair_words_;
      for (size_t i = 0; i < t.pair_words_; ++i) child_or[i] |= kid_row[i];
    }

    // Realizes: greedy in-order assignment of kid rows to outgoing edges.
    uint64_t* realizes_row = t.realizes_.data() + row * t.node_words_;
    for (size_t i = 0; i < t.node_words_; ++i) realizes_row[i] |= leaf_mask[i];
    for (PatternNodeId w : internal_nodes) {
      const std::vector<PatternNodeId>& edges = pattern.children(w);
      size_t j = 0;
      for (uint32_t kid = kid_begin; kid < kid_end; ++kid) {
        if (j == edges.size()) break;
        PatternNodeId target = edges[j];
        if (t.DeliversRow(kid, target, init_state[target])) ++j;
      }
      if (j == edges.size()) {
        realizes_row[w / 64] |= uint64_t{1} << (w % 64);
      }
    }

    // Delivers: for every (edge, state-before-the-row) pair. An edge whose
    // DFA cannot move any state on the row's label contributes nothing —
    // skip its whole state loop.
    const LabelId label = index.label(t.row_node_[row]);
    uint64_t* delivers_row = t.delivers_.data() + row * t.pair_words_;
    for (PatternNodeId w = 1; w < num_template_nodes; ++w) {
      const regex::DenseDfa& dfa = *t.edge_dfa_[w];
      const int32_t col = dfa.Column(label);
      if (!dfa.ColumnLive(col)) {
        ++label_skips;
        continue;
      }
      const int32_t* next_col = dfa.ColumnData(col);
      const uint32_t base = t.pair_offset_[w];
      const int32_t num_states = dfa.NumStates();
      const bool realizes_w = (realizes_row[w / 64] >> (w % 64)) & 1;
      for (int32_t s = 0; s < num_states; ++s) {
        const int32_t next = next_col[s];
        if (next == regex::kDeadState) continue;
        const bool ends_here = realizes_w && dfa.accepting(next);
        const uint32_t cont_index = base + static_cast<uint32_t>(next);
        const bool continues =
            (child_or[cont_index / 64] >> (cont_index % 64)) & 1;
        if (ends_here || continues) {
          const uint32_t bit = base + static_cast<uint32_t>(s);
          delivers_row[bit / 64] |= uint64_t{1} << (bit % 64);
        }
      }
    }
  }
  RTP_OBS_COUNT_N("pattern.eval.dense.label_skips", label_skips);
  return t;
}

size_t MappingEnumerator::Count(size_t limit) {
  size_t count = 0;
  ForEach([&](const Mapping&) {
    ++count;
    return limit == 0 || count < limit;
  });
  return count;
}

namespace {

SelectedTuples SelectImpl(const TreePattern& pattern,
                          const MatchTables& tables) {
  RTP_PHASE("pattern.enumerate");
  const std::vector<SelectedNode>& selected = pattern.selected();
  const size_t arity = selected.size();
  const DocIndex& index = tables.index();
  // One row per mapping: its selected images, and their ranks beside them.
  std::vector<NodeId> images;
  std::vector<uint32_t> ranks;
  uint32_t rows = 0;
  MappingEnumerator enumerator(tables);
  enumerator.ForEach([&](const Mapping& m) {
    for (const SelectedNode& s : selected) {
      images.push_back(m.image[s.node]);
      ranks.push_back(index.rank(m.image[s.node]));
    }
    ++rows;
    return true;
  });
  // Equal rank rows are equal tuples, so sorting the rows by their ranks
  // puts duplicates next to each other.
  auto rank_row = [&](uint32_t row) {
    return ranks.begin() + static_cast<ptrdiff_t>(row * arity);
  };
  std::vector<uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(rank_row(a), rank_row(a) + arity,
                                        rank_row(b), rank_row(b) + arity);
  });
  SelectedTuples result;
  result.arity = arity;
  for (uint32_t i = 0; i < rows; ++i) {
    if (i > 0 &&
        std::equal(rank_row(order[i]), rank_row(order[i]) + arity,
                   rank_row(order[i - 1]))) {
      continue;
    }
    const auto row = images.begin() + static_cast<ptrdiff_t>(order[i] * arity);
    result.nodes.insert(result.nodes.end(), row, row + arity);
    ++result.count;
  }
  RTP_OBS_COUNT_N("pattern.eval.tuples_selected", result.count);
  RTP_OBS_COUNT_N("pattern.eval.duplicate_tuples", rows - result.count);
  return result;
}

std::vector<std::vector<NodeId>> Nested(const SelectedTuples& tuples) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(tuples.count);
  for (size_t i = 0; i < tuples.count; ++i) {
    const auto row =
        tuples.nodes.begin() + static_cast<ptrdiff_t>(i * tuples.arity);
    out.emplace_back(row, row + tuples.arity);
  }
  return out;
}

}  // namespace

SelectedTuples SelectTuples(const TreePattern& pattern, const DocIndex& index,
                            obs::QueryProfile* profile) {
  obs::ProfileScope prof("pattern.EvaluateSelected", profile);
  MatchTables tables = MatchTables::Build(pattern, index);
  return SelectImpl(pattern, tables);
}

std::vector<std::vector<NodeId>> EvaluateSelected(const TreePattern& pattern,
                                                  const Document& doc) {
  return EvaluateSelected(pattern, doc, nullptr);
}

std::vector<std::vector<NodeId>> EvaluateSelected(const TreePattern& pattern,
                                                  const DocIndex& index) {
  return EvaluateSelected(pattern, index, nullptr);
}

std::vector<std::vector<NodeId>> EvaluateSelected(const TreePattern& pattern,
                                                  const Document& doc,
                                                  obs::QueryProfile* profile) {
  obs::ProfileScope prof("pattern.EvaluateSelected", profile);
  MatchTables tables = MatchTables::Build(pattern, doc);
  return Nested(SelectImpl(pattern, tables));
}

std::vector<std::vector<NodeId>> EvaluateSelected(const TreePattern& pattern,
                                                  const DocIndex& index,
                                                  obs::QueryProfile* profile) {
  return Nested(SelectTuples(pattern, index, profile));
}

std::vector<std::vector<std::vector<NodeId>>> EvaluateSelectedBatch(
    const TreePattern& pattern, const std::vector<const Document*>& docs,
    int jobs) {
  EvalBatchOptions options;
  options.jobs = jobs;
  return EvaluateSelectedBatch(pattern, docs, options, nullptr);
}

std::vector<std::vector<std::vector<NodeId>>> EvaluateSelectedBatch(
    const TreePattern& pattern, const std::vector<const Document*>& docs,
    const EvalBatchOptions& options, std::vector<Status>* statuses) {
  RTP_OBS_COUNT("pattern.eval.batches");
  if (statuses != nullptr) statuses->assign(docs.size(), Status::OK());
  if (options.profiles != nullptr) {
    options.profiles->assign(docs.size(), obs::QueryProfile());
  }
  const bool guarded = options.budget.Limited() || options.cancel != nullptr;
  std::vector<std::vector<std::vector<NodeId>>> results(docs.size());
  exec::ParallelFor(options.jobs, docs.size(), [&](size_t i) {
    obs::QueryProfile* item_profile =
        options.profiles == nullptr ? nullptr : &(*options.profiles)[i];
    if (!guarded) {
      results[i] = EvaluateSelected(pattern, *docs[i], item_profile);
      return;
    }
    // Helper threads do not inherit the caller's thread-local guard; each
    // document gets its own context so one runaway item trips alone.
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      if (statuses != nullptr) {
        (*statuses)[i] = CancelledError("cancelled before evaluation");
      }
      return;  // quick-skip drains the batch without touching the doc
    }
    guard::GuardContext ctx(options.budget, options.cancel);
    guard::ScopedGuard scope(&ctx);
    results[i] = EvaluateSelected(pattern, *docs[i], item_profile);
    if (!ctx.ok()) {
      results[i].clear();  // partial tuples under a trip are meaningless
      if (statuses != nullptr) (*statuses)[i] = ctx.status();
    }
  });
  return results;
}

std::vector<NodeId> TraceOf(const Document& doc, const Mapping& mapping) {
  // Seen-bitmask over the arena plus a flat collection vector; the final
  // sort restores the node-id order the previous std::set produced.
  std::vector<NodeId> nodes;
  std::vector<uint64_t> seen((doc.ArenaSize() + 63) / 64, 0);
  for (NodeId image : mapping.image) {
    if (image == kInvalidNode) continue;
    for (NodeId cur = image;; cur = doc.parent(cur)) {
      uint64_t& word = seen[cur / 64];
      const uint64_t bit = uint64_t{1} << (cur % 64);
      if (word & bit) break;
      word |= bit;
      nodes.push_back(cur);
      if (cur == doc.root()) break;
    }
  }
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

}  // namespace rtp::pattern
