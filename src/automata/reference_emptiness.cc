#include "automata/reference_emptiness.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "guard/guard.h"

namespace rtp::automata {

namespace {

// Finds a word over `inhabited` states accepted by `dfa` (shortest by
// BFS); nullopt if none.
std::optional<std::vector<StateId>> AcceptedWordOver(
    const regex::Dfa& dfa, const std::vector<bool>& inhabited) {
  // BFS over DFA states; edges labeled by inhabited state symbols.
  struct Step {
    int32_t prev;
    StateId symbol;
  };
  std::vector<Step> steps(dfa.NumStates(), Step{-1, -1});
  std::vector<bool> seen(dfa.NumStates(), false);
  std::deque<int32_t> work = {dfa.initial()};
  seen[dfa.initial()] = true;
  int32_t found = -1;
  while (!work.empty()) {
    if (!guard::KeepGoing()) return std::nullopt;
    int32_t h = work.front();
    work.pop_front();
    if (dfa.accepting(h)) {
      found = h;
      break;
    }
    for (size_t q = 0; q < inhabited.size(); ++q) {
      if (!inhabited[q]) continue;
      int32_t nh = dfa.Next(h, static_cast<LabelId>(q));
      if (nh == regex::kDeadState || seen[nh]) continue;
      seen[nh] = true;
      steps[nh] = Step{h, static_cast<StateId>(q)};
      work.push_back(nh);
    }
  }
  if (found == -1) return std::nullopt;
  std::vector<StateId> word;
  for (int32_t h = found; h != dfa.initial(); h = steps[h].prev) {
    word.push_back(steps[h].symbol);
  }
  std::reverse(word.begin(), word.end());
  return word;
}

// Round-based saturation: the set of inhabited states.
std::vector<bool> Saturate(const HedgeAutomaton& automaton) {
  const auto& transitions = automaton.transitions();
  std::vector<bool> inhabited(automaton.NumStates(), false);
  bool changed = true;
  while (changed && guard::Ok()) {
    changed = false;
    for (size_t i = 0; i < transitions.size(); ++i) {
      if (!guard::KeepGoing()) break;
      const HedgeAutomaton::Transition& t = transitions[i];
      if (inhabited[t.target]) continue;
      auto word = AcceptedWordOver(t.horizontal, inhabited);
      if (!word.has_value()) continue;
      inhabited[t.target] = true;
      changed = true;
    }
  }
  return inhabited;
}

}  // namespace

bool ReferenceIsEmptyLanguage(const HedgeAutomaton& automaton) {
  std::vector<bool> inhabited = Saturate(automaton);
  const std::vector<StateId>& root_accepting = automaton.root_accepting();
  for (const HedgeAutomaton::Transition& t : automaton.transitions()) {
    if (!t.guard.Admits(Alphabet::kRootLabel)) continue;
    bool is_accepting_target =
        std::find(root_accepting.begin(), root_accepting.end(), t.target) !=
        root_accepting.end();
    if (!is_accepting_target) continue;
    if (AcceptedWordOver(t.horizontal, inhabited).has_value()) return false;
  }
  return true;
}

}  // namespace rtp::automata
