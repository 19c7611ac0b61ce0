#ifndef RTP_AUTOMATA_REFERENCE_EMPTINESS_H_
#define RTP_AUTOMATA_REFERENCE_EMPTINESS_H_

#include "automata/hedge_automaton.h"

namespace rtp::automata {

// The round-based emptiness test that HedgeAutomaton::IsEmptyLanguage
// replaced, kept as the specification oracle for tests and rtp::fuzz (and
// nowhere else: each round re-runs a breadth-first word search over every
// inhabited state for every uninhabited transition).
//
// Rounds repeat until nothing changes: a transition's target becomes
// inhabited once its horizontal DFA accepts some word over the states
// inhabited so far. The language is non-empty iff a transition admitting
// "/" and targeting a root-accepting state then accepts such a word.
bool ReferenceIsEmptyLanguage(const HedgeAutomaton& automaton);

}  // namespace rtp::automata

#endif  // RTP_AUTOMATA_REFERENCE_EMPTINESS_H_
