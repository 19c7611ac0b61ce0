#include "automata/hedge_automaton.h"

#include <algorithm>

#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regex/regex_ast.h"

namespace rtp::automata {

using xml::Document;
using xml::kInvalidNode;
using xml::NodeId;

Guard Guard::AnyExcept(std::vector<LabelId> excluded) {
  std::sort(excluded.begin(), excluded.end());
  excluded.erase(std::unique(excluded.begin(), excluded.end()),
                 excluded.end());
  return Guard{Kind::kAnyExcept, kInvalidLabel, std::move(excluded)};
}

bool Guard::Admits(LabelId l) const {
  if (kind == Kind::kLabel) return l == label;
  return !std::binary_search(excluded.begin(), excluded.end(), l);
}

std::optional<Guard> Guard::Intersect(const Guard& a, const Guard& b) {
  if (a.kind == Kind::kLabel) {
    if (!b.Admits(a.label)) return std::nullopt;
    return a;
  }
  if (b.kind == Kind::kLabel) {
    if (!a.Admits(b.label)) return std::nullopt;
    return b;
  }
  std::vector<LabelId> merged = a.excluded;
  merged.insert(merged.end(), b.excluded.begin(), b.excluded.end());
  return AnyExcept(std::move(merged));
}

LabelId Guard::RepresentativeElementLabel(Alphabet* alphabet) const {
  if (kind == Kind::kLabel) return label;
  for (LabelId id = 0; id < alphabet->size(); ++id) {
    if (id == Alphabet::kRootLabel) continue;
    if (alphabet->Kind(id) != LabelKind::kElement) continue;
    if (Admits(id)) return id;
  }
  // Every interned element label is excluded: intern a fresh one.
  for (int i = 0;; ++i) {
    std::string name = "anyElem" + (i == 0 ? "" : std::to_string(i));
    LabelId id = alphabet->Intern(name);
    if (Admits(id)) return id;
  }
}

int64_t HedgeAutomaton::TotalSize() const {
  int64_t size = NumStates();
  for (const Transition& t : transitions_) {
    size += 1 + t.horizontal.NumStates();
  }
  return size;
}

std::vector<std::vector<StateId>> HedgeAutomaton::Run(
    const Document& doc) const {
  RTP_OBS_COUNT("automata.run.documents");
  RTP_PHASE("automata.run");
  std::vector<std::vector<StateId>> assigned(doc.ArenaSize());

  // Postorder traversal.
  std::vector<NodeId> postorder;
  {
    std::vector<NodeId> stack = {doc.root()};
    while (!stack.empty()) {
      NodeId v = stack.back();
      stack.pop_back();
      postorder.push_back(v);
      for (NodeId c = doc.first_child(v); c != kInvalidNode;
           c = doc.next_sibling(c)) {
        stack.push_back(c);
      }
    }
    std::reverse(postorder.begin(), postorder.end());
  }

  std::vector<StateId> h_states;  // scratch: current horizontal NFA set
  std::vector<StateId> h_next;
  for (NodeId v : postorder) {
    if (!guard::KeepGoing()) break;
    LabelId label = doc.label(v);
    std::vector<StateId>& out = assigned[v];
    for (const Transition& t : transitions_) {
      if (!t.guard.Admits(label)) continue;
      // Simulate the horizontal DFA over children state *sets*.
      h_states.assign(1, t.horizontal.initial());
      bool dead = false;
      for (NodeId c = doc.first_child(v); c != kInvalidNode && !dead;
           c = doc.next_sibling(c)) {
        h_next.clear();
        for (StateId h : h_states) {
          for (StateId q : assigned[c]) {
            int32_t nh = t.horizontal.Next(h, static_cast<LabelId>(q));
            if (nh != regex::kDeadState) h_next.push_back(nh);
          }
        }
        std::sort(h_next.begin(), h_next.end());
        h_next.erase(std::unique(h_next.begin(), h_next.end()), h_next.end());
        h_states.swap(h_next);
        dead = h_states.empty();
      }
      if (dead) continue;
      bool accepted = false;
      for (StateId h : h_states) {
        if (t.horizontal.accepting(h)) {
          accepted = true;
          break;
        }
      }
      if (accepted) out.push_back(t.target);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return assigned;
}

bool HedgeAutomaton::Accepts(const Document& doc) const {
  std::vector<std::vector<StateId>> assigned = Run(doc);
  const std::vector<StateId>& root_states = assigned[doc.root()];
  for (StateId q : root_accepting_) {
    if (std::binary_search(root_states.begin(), root_states.end(), q)) {
      return true;
    }
  }
  return false;
}

namespace {

// Slot marks of Saturate(): a pair not reached yet, and the initial state.
constexpr int32_t kUnreached = -2;
constexpr int32_t kSeed = -1;

// Examined edges between two guard polls.
constexpr size_t kPollBatch = 256;

}  // namespace

HedgeAutomaton::Saturation HedgeAutomaton::Saturate() const {
  RTP_PHASE("automata.emptiness.saturate");
  const StateId num_states = NumStates();
  const int32_t num_transitions = static_cast<int32_t>(transitions_.size());

  // A root transition admits "/" and targets a root-accepting state: once
  // its horizontal DFA accepts, the language is non-empty.
  std::vector<bool> root_accepting(num_states, false);
  for (StateId q : root_accepting_) root_accepting[q] = true;
  std::vector<bool> root_transition(num_transitions, false);
  for (int32_t i = 0; i < num_transitions; ++i) {
    const Transition& t = transitions_[i];
    root_transition[i] =
        root_accepting[t.target] && t.guard.Admits(Alphabet::kRootLabel);
  }

  // One slot per (transition i, horizontal state h), at slot_base[i] + h.
  // A reached slot records the state it was reached from (kSeed for the
  // initial state) and the inhabited state read on that edge, so a word
  // can be read back along the predecessors.
  struct Slot {
    int32_t from = kUnreached;
    StateId symbol = -1;
  };
  std::vector<size_t> slot_base(num_transitions + 1, 0);
  for (int32_t i = 0; i < num_transitions; ++i) {
    slot_base[i + 1] = slot_base[i] + transitions_[i].horizontal.NumStates();
  }
  std::vector<Slot> slots(slot_base[num_transitions]);

  // Explicit edges waiting for their symbol to be inhabited, chained per
  // symbol; and reached states whose `otherwise` edge waits for an
  // inhabited state outside their explicit keys.
  struct WaitingEdge {
    int32_t transition, from, to, next;
  };
  std::vector<WaitingEdge> waiting;
  std::vector<int32_t> waiting_head(num_states, -1);
  struct PendingOtherwise {
    int32_t transition, from;
  };
  std::vector<PendingOtherwise> pending;

  Saturation out;
  out.recipes.resize(num_states);
  std::vector<StateId> inhabited;  // in the order proved
  std::vector<std::pair<int32_t, int32_t>> queue;  // reached (i, h), FIFO
  size_t edges_fired = 0;
  size_t examined = 0;
  auto poll = [&examined] {
    return ++examined % kPollBatch != 0 || guard::KeepGoing();
  };
  // Only a root transition, or one whose target is not inhabited yet, can
  // still prove something.
  auto useful = [&](int32_t i) {
    return root_transition[i] ||
           !out.recipes[transitions_[i].target].has_value();
  };
  auto fire = [&](int32_t i, int32_t from, int32_t to, StateId symbol) {
    ++edges_fired;
    Slot& slot = slots[slot_base[i] + to];
    if (slot.from != kUnreached) return;
    slot = Slot{from, symbol};
    queue.emplace_back(i, to);
  };
  auto word_to = [&](int32_t i, int32_t h) {
    std::vector<StateId> word;
    for (const Slot* s = &slots[slot_base[i] + h]; s->from != kSeed;
         s = &slots[slot_base[i] + s->from]) {
      word.push_back(s->symbol);
    }
    std::reverse(word.begin(), word.end());
    return word;
  };
  // Records q's recipe and fires every edge that was waiting for q.
  auto inhabit = [&](StateId q, int32_t i, int32_t h) {
    out.recipes[q] = Recipe{i, word_to(i, h)};
    inhabited.push_back(q);
    for (int32_t e = waiting_head[q]; e != -1; e = waiting[e].next) {
      if (!poll()) return;
      const WaitingEdge& edge = waiting[e];
      if (useful(edge.transition)) fire(edge.transition, edge.from, edge.to, q);
    }
    waiting_head[q] = -1;
    for (size_t k = 0; k < pending.size();) {
      if (!poll()) return;
      const PendingOtherwise p = pending[k];
      const regex::Dfa::State& st =
          transitions_[p.transition].horizontal.state(p.from);
      if (st.next.count(static_cast<LabelId>(q)) != 0) {
        ++k;
        continue;
      }
      if (useful(p.transition)) fire(p.transition, p.from, st.otherwise, q);
      pending[k] = pending.back();
      pending.pop_back();
    }
  };

  for (int32_t i = 0; i < num_transitions; ++i) {
    const regex::Dfa& dfa = transitions_[i].horizontal;
    if (dfa.NumStates() == 0) continue;
    slots[slot_base[i] + dfa.initial()] = Slot{kSeed, -1};
    queue.emplace_back(i, dfa.initial());
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    if (!guard::KeepGoing()) break;
    const auto [i, h] = queue[head];
    if (!useful(i)) continue;
    const Transition& t = transitions_[i];
    const regex::Dfa::State& st = t.horizontal.state(h);
    if (st.accepting) {
      if (root_transition[i]) {
        out.root_word = word_to(i, h);
        break;
      }
      inhabit(t.target, i, h);
      continue;  // the target is inhabited: nothing left to prove
    }
    bool tripped = false;
    for (const auto& [label, to] : st.next) {
      if (!poll()) {
        tripped = true;
        break;
      }
      StateId q = static_cast<StateId>(label);
      if (to == regex::kDeadState || q < 0 || q >= num_states) continue;
      if (slots[slot_base[i] + to].from != kUnreached) continue;
      if (out.recipes[q].has_value()) {
        fire(i, h, to, q);
      } else {
        waiting.push_back(WaitingEdge{i, h, to, waiting_head[q]});
        waiting_head[q] = static_cast<int32_t>(waiting.size()) - 1;
      }
    }
    if (tripped) break;
    if (st.otherwise == regex::kDeadState ||
        slots[slot_base[i] + st.otherwise].from != kUnreached) {
      continue;
    }
    // Among any keys+1 inhabited states one is not a key of h.
    bool fired = false;
    for (size_t k = 0; k < inhabited.size() && k <= st.next.size(); ++k) {
      StateId q = inhabited[k];
      if (st.next.count(static_cast<LabelId>(q)) == 0) {
        fire(i, h, st.otherwise, q);
        fired = true;
        break;
      }
    }
    if (!fired) pending.push_back(PendingOtherwise{i, h});
  }
  RTP_OBS_COUNT_N("automata.emptiness.edges_fired", edges_fired);
  RTP_OBS_COUNT_N("automata.emptiness.states_inhabited", inhabited.size());
  RTP_OBS_COUNT_N("automata.emptiness.states_pruned",
                  static_cast<size_t>(num_states) - inhabited.size());
  return out;
}

bool HedgeAutomaton::IsEmptyLanguage() const {
  RTP_OBS_COUNT("automata.emptiness.checks");
  RTP_PHASE("automata.emptiness");
  Saturation saturation = Saturate();
  if (!guard::Ok()) return false;
  return !saturation.root_word.has_value();
}

StatusOr<Document> HedgeAutomaton::FindWitnessDocument(
    Alphabet* alphabet) const {
  Saturation saturation = Saturate();
  if (!saturation.root_word.has_value()) {
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return NotFoundError("the automaton's language is empty");
  }
  const std::vector<std::optional<Recipe>>& recipes = saturation.recipes;
  const std::vector<StateId>& root_word = *saturation.root_word;

  Document doc(alphabet);
  // Recursively materialize each state of the word under `parent`.
  // (Recursion depth is bounded by the fixpoint order: recipes only
  // reference states inhabited strictly earlier.)
  struct Builder {
    const HedgeAutomaton& automaton;
    const std::vector<std::optional<Recipe>>& recipes;
    Alphabet* alphabet;
    Document* doc;

    void Build(StateId q, NodeId parent) {
      const Recipe& recipe = *recipes[q];
      const Transition& t = automaton.transitions_[recipe.transition];
      LabelId label;
      xml::NodeType type;
      if (recipe.child_word.empty()) {
        // Leaves may use attribute/text labels.
        label = t.guard.kind == Guard::Kind::kLabel
                    ? t.guard.label
                    : t.guard.RepresentativeElementLabel(alphabet);
        switch (alphabet->Kind(label)) {
          case LabelKind::kAttribute:
            type = xml::NodeType::kAttribute;
            break;
          case LabelKind::kText:
            type = xml::NodeType::kText;
            break;
          default:
            type = xml::NodeType::kElement;
        }
      } else {
        label = t.guard.RepresentativeElementLabel(alphabet);
        RTP_CHECK_MSG(alphabet->Kind(label) == LabelKind::kElement,
                      "internal witness node needs an element label");
        type = xml::NodeType::kElement;
      }
      NodeId node = doc->AddChild(
          parent, label, type,
          type == xml::NodeType::kElement ? "" : "w");
      for (StateId child : recipe.child_word) Build(child, node);
    }
  };
  Builder builder{*this, recipes, alphabet, &doc};
  for (StateId q : root_word) builder.Build(q, doc.root());
  return doc;
}

HedgeAutomaton HedgeAutomaton::Universal() {
  HedgeAutomaton a;
  StateId q = a.AddState(false);
  // Horizontal: q* .
  regex::Dfa::State h;
  h.accepting = true;
  h.next.emplace(static_cast<LabelId>(q), 0);
  a.AddTransition(Guard::Any(), regex::Dfa::FromStates({h}, 0), q);
  a.AddRootAccepting(q);
  return a;
}

regex::Dfa InterleavedHorizontal(const std::vector<std::vector<StateId>>& parts,
                                 const std::vector<StateId>& fillers) {
  using regex::RegexAst;
  std::vector<RegexAst> seq;
  auto filler_star = [&fillers]() -> RegexAst {
    std::vector<RegexAst> alts;
    for (StateId f : fillers) alts.push_back(regex::Sym(static_cast<LabelId>(f)));
    if (alts.empty()) {
      // No fillers allowed: empty-word-only filler. Star of an impossible
      // symbol is awkward with this AST; return nullptr to signal "skip".
      return nullptr;
    }
    return regex::Star(regex::Alt(std::move(alts)));
  };
  RegexAst fill = filler_star();
  auto append_fill = [&seq, &fillers, &fill]() {
    if (!fillers.empty()) seq.push_back(regex::CloneAst(*fill));
  };
  append_fill();
  for (const std::vector<StateId>& part : parts) {
    RTP_CHECK(!part.empty());
    std::vector<RegexAst> alts;
    for (StateId q : part) alts.push_back(regex::Sym(static_cast<LabelId>(q)));
    seq.push_back(regex::Alt(std::move(alts)));
    append_fill();
  }
  if (seq.empty()) {
    // No parts and no fillers: accept exactly the empty word.
    regex::Dfa::State only;
    only.accepting = true;
    return regex::Dfa::FromStates({only}, 0);
  }
  return regex::Dfa::FromAst(*regex::Cat(std::move(seq))).Minimize();
}

}  // namespace rtp::automata
