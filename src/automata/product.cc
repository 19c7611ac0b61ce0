#include "automata/product.h"

#include <map>
#include <tuple>

#include "guard/failpoints.h"
#include "guard/guard.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rtp::automata {

namespace {

// Symbols a horizontal DFA can consume from a given state: its explicit
// keys, plus (when `otherwise` is live) every other automaton state.
std::vector<StateId> ConsumableSymbols(const regex::Dfa& dfa, int32_t h,
                                       int32_t num_automaton_states) {
  const regex::Dfa::State& state = dfa.state(h);
  std::vector<StateId> symbols;
  if (state.otherwise != regex::kDeadState) {
    symbols.reserve(num_automaton_states);
    for (StateId q = 0; q < num_automaton_states; ++q) symbols.push_back(q);
    return symbols;
  }
  symbols.reserve(state.next.size());
  for (const auto& [label, target] : state.next) {
    if (target != regex::kDeadState) {
      symbols.push_back(static_cast<StateId>(label));
    }
  }
  return symbols;
}

// Builds the product horizontal DFA for one transition pair.
//
// track_met = false: product symbols are pair ids qa * nb + qb; states are
// (h1, h2); accepting iff both accepting.
//
// track_met = true: product symbols are (qa * nb + qb) * 2 + m; states are
// (h1, h2, orbit) with orbit |= m; `met_accept` selects which final met
// value the produced DFA accepts: the parent's met is own_mark || orbit, so
// the met=1 variant accepts orbit==1 (or anything when own_mark), and the
// met=0 variant accepts orbit==0 (impossible when own_mark).
regex::Dfa ProductHorizontal(const regex::Dfa& ha, const regex::Dfa& hb,
                             int32_t na, int32_t nb, bool track_met,
                             bool own_mark, bool met_accept,
                             const HedgeAutomaton& a,
                             const HedgeAutomaton& b) {
  struct Key {
    int32_t h1, h2;
    int orbit;
    bool operator<(const Key& other) const {
      return std::tie(h1, h2, orbit) < std::tie(other.h1, other.h2, other.orbit);
    }
  };
  std::map<Key, int32_t> ids;
  std::vector<Key> order;
  std::vector<regex::Dfa::State> states;

  auto intern = [&](Key key) {
    auto [it, inserted] = ids.emplace(key, static_cast<int32_t>(ids.size()));
    if (inserted) {
      order.push_back(key);
      states.emplace_back();
      guard::AccountStates(1);
    }
    return it->second;
  };

  int32_t initial = intern({ha.initial(), hb.initial(), 0});
  // One poll per expanded product state; a trip abandons the tail of
  // `order`, leaving those states transitionless (callers discard the
  // automaton through the guard's Status).
  for (size_t i = 0; i < order.size(); ++i) {
    if (!guard::KeepGoing()) break;
    Key key = order[i];
    bool both_accepting = ha.accepting(key.h1) && hb.accepting(key.h2);
    if (!track_met) {
      states[i].accepting = both_accepting;
    } else {
      bool met = own_mark || key.orbit == 1;
      states[i].accepting = both_accepting && (met == met_accept);
    }
    // Enumerate consumable product symbols.
    for (StateId qa : ConsumableSymbols(ha, key.h1, na)) {
      int32_t nh1 = ha.Next(key.h1, static_cast<LabelId>(qa));
      if (nh1 == regex::kDeadState) continue;
      for (StateId qb : ConsumableSymbols(hb, key.h2, nb)) {
        int32_t nh2 = hb.Next(key.h2, static_cast<LabelId>(qb));
        if (nh2 == regex::kDeadState) continue;
        if (!track_met) {
          LabelId symbol = static_cast<LabelId>(qa * nb + qb);
          int32_t target = intern({nh1, nh2, 0});
          states[i].next.emplace(symbol, target);
        } else {
          bool child_marks = a.mark(qa) && b.mark(qb);
          for (int m = 0; m < 2; ++m) {
            // A child can only report met=m if its own state allows it;
            // we conservatively enumerate both and rely on child states
            // (qa, qb, m) being inhabited only when consistent.
            if (m == 0 && child_marks) continue;  // children with both marks
                                                  // always have met >= 1
            LabelId symbol =
                static_cast<LabelId>((qa * nb + qb) * 2 + m);
            int32_t target = intern({nh1, nh2, key.orbit | m});
            states[i].next.emplace(symbol, target);
          }
        }
      }
    }
  }

  RTP_OBS_COUNT_N("automata.product.horizontal_states_built", states.size());
  return regex::Dfa::FromStates(std::move(states), initial);
}

}  // namespace

HedgeAutomaton Intersect(const HedgeAutomaton& a, const HedgeAutomaton& b) {
  RTP_OBS_COUNT("automata.product.intersections");
  RTP_PHASE("automata.product");
  RTP_FAILPOINT("automata.product");
  int32_t na = a.NumStates();
  int32_t nb = b.NumStates();
  HedgeAutomaton out;
  // The dense state numbering below requires all na*nb states, so the
  // quota is charged up front: a huge product trips before allocating.
  guard::AccountStates(static_cast<int64_t>(na) * nb);
  if (!guard::Ok()) return out;
  for (StateId qa = 0; qa < na; ++qa) {
    for (StateId qb = 0; qb < nb; ++qb) {
      StateId q = out.AddState(a.mark(qa) && b.mark(qb));
      RTP_CHECK(q == qa * nb + qb);
    }
  }
  size_t guard_pruned = 0;
  for (const auto& ta : a.transitions()) {
    if (!guard::KeepGoing()) break;
    for (const auto& tb : b.transitions()) {
      std::optional<Guard> guard = Guard::Intersect(ta.guard, tb.guard);
      if (!guard.has_value()) {
        ++guard_pruned;
        continue;
      }
      regex::Dfa horizontal =
          ProductHorizontal(ta.horizontal, tb.horizontal, na, nb,
                            /*track_met=*/false, false, false, a, b);
      out.AddTransition(std::move(*guard), std::move(horizontal),
                        ta.target * nb + tb.target);
    }
  }
  for (StateId ra : a.root_accepting()) {
    for (StateId rb : b.root_accepting()) {
      out.AddRootAccepting(ra * nb + rb);
    }
  }
  RTP_OBS_COUNT_N("automata.product.states_built", out.NumStates());
  RTP_OBS_COUNT_N("automata.product.transitions_built",
                  out.transitions().size());
  RTP_OBS_COUNT_N("automata.product.guard_pruned", guard_pruned);
  RTP_OBS_HISTOGRAM_RECORD("automata.product.total_size", out.TotalSize());
  return out;
}

HedgeAutomaton MeetProduct(const HedgeAutomaton& a, const HedgeAutomaton& b) {
  RTP_OBS_COUNT("automata.product.meet_products");
  RTP_PHASE("automata.product");
  RTP_FAILPOINT("automata.product");
  int32_t na = a.NumStates();
  int32_t nb = b.NumStates();
  HedgeAutomaton out;
  // As in Intersect: dense numbering needs the full na*nb*2 state block,
  // so charge the quota before allocating it.
  guard::AccountStates(static_cast<int64_t>(na) * nb * 2);
  if (!guard::Ok()) return out;
  for (StateId qa = 0; qa < na; ++qa) {
    for (StateId qb = 0; qb < nb; ++qb) {
      for (int m = 0; m < 2; ++m) {
        StateId q = out.AddState(/*mark=*/m == 1);
        RTP_CHECK(q == (qa * nb + qb) * 2 + m);
      }
    }
  }
  size_t guard_pruned = 0;
  for (const auto& ta : a.transitions()) {
    if (!guard::KeepGoing()) break;
    for (const auto& tb : b.transitions()) {
      std::optional<Guard> guard = Guard::Intersect(ta.guard, tb.guard);
      if (!guard.has_value()) {
        ++guard_pruned;
        continue;
      }
      bool own_mark = a.mark(ta.target) && b.mark(tb.target);
      for (int met = 0; met < 2; ++met) {
        if (own_mark && met == 0) continue;  // unsatisfiable variant
        regex::Dfa horizontal =
            ProductHorizontal(ta.horizontal, tb.horizontal, na, nb,
                              /*track_met=*/true, own_mark, met == 1, a, b);
        out.AddTransition(*guard, std::move(horizontal),
                          (ta.target * nb + tb.target) * 2 + met);
      }
    }
  }
  for (StateId ra : a.root_accepting()) {
    for (StateId rb : b.root_accepting()) {
      out.AddRootAccepting((ra * nb + rb) * 2 + 1);
    }
  }
  RTP_OBS_COUNT_N("automata.product.states_built", out.NumStates());
  RTP_OBS_COUNT_N("automata.product.transitions_built",
                  out.transitions().size());
  RTP_OBS_COUNT_N("automata.product.guard_pruned", guard_pruned);
  RTP_OBS_HISTOGRAM_RECORD("automata.product.total_size", out.TotalSize());
  return out;
}

}  // namespace rtp::automata
