#include "workload/random_document.h"

#include <deque>
#include <map>
#include <vector>

namespace rtp::workload {

using xml::Document;
using xml::NodeId;

namespace {

// Per-content-model navigation data: distance to the nearest accepting
// state and one transition achieving it.
struct DfaNavigation {
  std::vector<int32_t> dist;        // -1: cannot reach accepting
  std::vector<LabelId> best_label;  // step achieving dist-1
  std::vector<int32_t> best_target;
};

DfaNavigation Analyze(const regex::Dfa& dfa) {
  DfaNavigation nav;
  int32_t n = dfa.NumStates();
  nav.dist.assign(n, -1);
  nav.best_label.assign(n, kInvalidLabel);
  nav.best_target.assign(n, -1);
  // Reverse BFS from accepting states.
  std::deque<int32_t> work;
  for (int32_t s = 0; s < n; ++s) {
    if (dfa.accepting(s)) {
      nav.dist[s] = 0;
      work.push_back(s);
    }
  }
  // Build reverse edges (explicit keys only; schema content DFAs have no
  // live `otherwise`).
  std::vector<std::vector<std::pair<int32_t, LabelId>>> rev(n);
  for (int32_t s = 0; s < n; ++s) {
    for (const auto& [label, target] : dfa.state(s).next) {
      if (target != regex::kDeadState) rev[target].push_back({s, label});
    }
  }
  while (!work.empty()) {
    int32_t s = work.front();
    work.pop_front();
    for (auto [p, label] : rev[s]) {
      if (nav.dist[p] == -1) {
        nav.dist[p] = nav.dist[s] + 1;
        nav.best_label[p] = label;
        nav.best_target[p] = s;
        work.push_back(p);
      }
    }
  }
  return nav;
}

class Generator {
 public:
  Generator(const schema::Schema& schema, const RandomDocumentParams& params)
      : schema_(schema), params_(params), rng_(params.seed) {
    for (const auto& [name, dfa] : schema.content_models()) {
      navigation_.emplace(name, Analyze(dfa));
    }
  }

  StatusOr<Document> Generate() {
    Document doc(schema_.alphabet());
    const auto& roots = schema_.roots();
    const std::string& root =
        roots[std::uniform_int_distribution<size_t>(0, roots.size() - 1)(rng_)];
    RTP_RETURN_IF_ERROR(EmitElement(&doc, doc.root(), root, 1));
    return doc;
  }

 private:
  std::string RandomValue() {
    uint32_t v = std::uniform_int_distribution<uint32_t>(
        0, params_.value_pool - 1)(rng_);
    return "v" + std::to_string(v);
  }

  Status EmitElement(Document* doc, NodeId parent, const std::string& label,
                     size_t depth) {
    if (depth > params_.hard_depth_limit) {
      return FailedPreconditionError(
          "random generation exceeded the hard depth limit (schema '" + label +
          "' recursion does not terminate with minimal content)");
    }
    NodeId node = doc->AddElement(parent, label);
    ++nodes_emitted_;
    auto model_it = schema_.content_models().find(label);
    RTP_CHECK(model_it != schema_.content_models().end());
    const regex::Dfa& dfa = model_it->second;
    const DfaNavigation& nav = navigation_.at(label);
    if (nav.dist[dfa.initial()] == -1) {
      return FailedPreconditionError("content model of '" + label +
                                     "' accepts no word");
    }

    int32_t state = dfa.initial();
    size_t emitted = 0;
    while (true) {
      // The node budget is rechecked every step: a recursive child may
      // have exhausted it mid-word.
      bool must_finish = depth >= params_.max_depth ||
                         nodes_emitted_ >= params_.max_total_nodes ||
                         emitted >= params_.soft_max_children;
      if (must_finish) {
        if (dfa.accepting(state)) break;
        RTP_RETURN_IF_ERROR(
            EmitChild(doc, node, nav.best_label[state], depth));
        state = nav.best_target[state];
        ++emitted;
        continue;
      }
      // Options: stop (if accepting) or take any productive transition;
      // transitions are weighted to favor bushier documents.
      std::vector<std::pair<LabelId, int32_t>> options;
      for (const auto& [l, t] : dfa.state(state).next) {
        if (t != regex::kDeadState && nav.dist[t] != -1) options.push_back({l, t});
      }
      size_t weight = params_.continue_weight == 0 ? 1 : params_.continue_weight;
      size_t total =
          options.size() * weight + (dfa.accepting(state) ? 1 : 0);
      size_t pick = std::uniform_int_distribution<size_t>(0, total - 1)(rng_);
      if (pick >= options.size() * weight) break;  // chose "stop"
      const auto& chosen = options[pick / weight];
      RTP_RETURN_IF_ERROR(EmitChild(doc, node, chosen.first, depth));
      state = chosen.second;
      ++emitted;
    }
    return Status::OK();
  }

  Status EmitChild(Document* doc, NodeId parent, LabelId label, size_t depth) {
    const std::string& name = schema_.alphabet()->Name(label);
    switch (schema_.alphabet()->Kind(label)) {
      case LabelKind::kAttribute:
        doc->AddAttribute(parent, name, RandomValue());
        return Status::OK();
      case LabelKind::kText:
        doc->AddText(parent, RandomValue());
        return Status::OK();
      case LabelKind::kElement:
        return EmitElement(doc, parent, name, depth + 1);
    }
    return InternalError("unknown label kind");
  }

  const schema::Schema& schema_;
  const RandomDocumentParams& params_;
  std::mt19937_64 rng_;
  std::map<std::string, DfaNavigation> navigation_;
  size_t nodes_emitted_ = 0;
};

}  // namespace

StatusOr<Document> GenerateRandomDocument(const schema::Schema& schema,
                                          const RandomDocumentParams& params) {
  return Generator(schema, params).Generate();
}

}  // namespace rtp::workload
