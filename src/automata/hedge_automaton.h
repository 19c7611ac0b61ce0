#ifndef RTP_AUTOMATA_HEDGE_AUTOMATON_H_
#define RTP_AUTOMATA_HEDGE_AUTOMATON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/alphabet.h"
#include "common/status.h"
#include "regex/dfa.h"
#include "xml/document.h"

namespace rtp::automata {

using StateId = int32_t;

// Label guard of a hedge-automaton transition. The label universe is
// open-ended (documents may use labels unseen by patterns and schemas), so
// the complement form kAnyExcept is always satisfiable.
struct Guard {
  enum class Kind : uint8_t { kLabel, kAnyExcept };

  Kind kind = Kind::kAnyExcept;
  LabelId label = kInvalidLabel;      // kLabel
  std::vector<LabelId> excluded;      // kAnyExcept (sorted)

  static Guard Label(LabelId l) { return Guard{Kind::kLabel, l, {}}; }
  static Guard Any() { return Guard{Kind::kAnyExcept, kInvalidLabel, {}}; }
  static Guard AnyExcept(std::vector<LabelId> excluded);

  bool Admits(LabelId l) const;

  // Intersection of two guards; nullopt when unsatisfiable.
  static std::optional<Guard> Intersect(const Guard& a, const Guard& b);

  // A label admitted by the guard, suitable as an element label (witness
  // synthesis). Prefers an interned non-reserved element label; interns a
  // fresh one if needed.
  LabelId RepresentativeElementLabel(Alphabet* alphabet) const;
};

// A nondeterministic bottom-up hedge automaton over XML documents, with an
// optional boolean "mark" per state (used by the independence criterion to
// flag trace/selected nodes).
//
// A run assigns each node a state q such that some transition
// (guard, horizontal, q) has guard admitting the node's label and the word
// of the children's assigned states in the horizontal language (a
// regex::Dfa over state ids). The automaton accepts a document iff the root
// (labeled "/") can be assigned a state in root_accepting().
class HedgeAutomaton {
 public:
  struct Transition {
    Guard guard;
    regex::Dfa horizontal;  // over StateIds cast to LabelId
    StateId target;
  };

  StateId AddState(bool mark = false) {
    marks_.push_back(mark);
    return static_cast<StateId>(marks_.size()) - 1;
  }
  void AddTransition(Guard guard, regex::Dfa horizontal, StateId target) {
    RTP_CHECK(target >= 0 && target < NumStates());
    transitions_.push_back(
        Transition{std::move(guard), std::move(horizontal), target});
  }
  void AddRootAccepting(StateId q) { root_accepting_.push_back(q); }

  int32_t NumStates() const { return static_cast<int32_t>(marks_.size()); }
  bool mark(StateId q) const { return marks_[q]; }
  const std::vector<Transition>& transitions() const { return transitions_; }
  const std::vector<StateId>& root_accepting() const {
    return root_accepting_;
  }

  // |A|: states plus transitions plus horizontal-DFA states (benchmark
  // instrumentation for Proposition 3's size bound).
  int64_t TotalSize() const;

  // Bottom-up run: for each arena node of `doc`, the sorted set of
  // assignable states (empty vectors for detached nodes).
  std::vector<std::vector<StateId>> Run(const xml::Document& doc) const;

  bool Accepts(const xml::Document& doc) const;

  // Emptiness of the recognized document language. Under a tripped guard
  // the answer is false ("not proved empty") and meaningless; callers
  // consult guard::CurrentStatus().
  bool IsEmptyLanguage() const;

  // A smallest-effort witness document (not necessarily minimal), or
  // NotFoundError when the language is empty. May intern fresh labels.
  StatusOr<xml::Document> FindWitnessDocument(Alphabet* alphabet) const;

  // The universal automaton (accepts every document); its single state is
  // unmarked.
  static HedgeAutomaton Universal();

 private:
  struct Recipe {
    int32_t transition = -1;
    std::vector<StateId> child_word;
  };

  // What the inhabitation fixpoint had proved when it stopped.
  struct Saturation {
    // Per state: a transition and a child word over states inhabited
    // earlier; nullopt for states not proved inhabited.
    std::vector<std::optional<Recipe>> recipes;
    // The children of the root under the first root transition found to
    // accept; nullopt when the language is empty or the guard tripped.
    std::optional<std::vector<StateId>> root_word;
  };

  // Worklist least fixpoint over (transition, horizontal state) pairs,
  // shared by IsEmptyLanguage and FindWitnessDocument. Each horizontal
  // edge is examined once; it stops at the first accepting root
  // transition.
  Saturation Saturate() const;

  std::vector<bool> marks_;
  std::vector<Transition> transitions_;
  std::vector<StateId> root_accepting_;
};

// Builds a horizontal-language DFA accepting `filler* C1 filler* C2 ...
// Ck filler*`, where each Ci is a set of alternative state symbols. Used by
// the pattern compiler and by schema content models.
regex::Dfa InterleavedHorizontal(const std::vector<std::vector<StateId>>& parts,
                                 const std::vector<StateId>& fillers);

}  // namespace rtp::automata

#endif  // RTP_AUTOMATA_HEDGE_AUTOMATON_H_
