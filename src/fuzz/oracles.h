#ifndef RTP_FUZZ_ORACLES_H_
#define RTP_FUZZ_ORACLES_H_

#include <cstdint>
#include <vector>

#include "automata/hedge_automaton.h"
#include "common/status.h"
#include "fd/functional_dependency.h"
#include "fuzz/small_docs.h"
#include "pattern/tree_pattern.h"
#include "schema/schema.h"
#include "update/update_class.h"
#include "xml/document.h"

namespace rtp::fuzz {

// Differential oracles: each compares an optimized code path against an
// independent implementation of the same semantics and returns a non-OK
// Status describing the first disagreement. They are run from three
// places — the libFuzzer harnesses (fuzz/), the ctest battery
// (tests/differential_oracle_test.cc) and the corpus replay test — so a
// regression in any path trips all of them.

// Dense kernel (DenseDfa + DocIndex match tables) vs the Definition 2
// literal reference evaluator, as selected-tuple sets.
Status CheckDenseVsReference(const pattern::TreePattern& pattern,
                             const xml::Document& doc);

// MatchTables' live-region rows vs Definition 2's Delivers and Realizes
// (pattern/evaluator.h), transcribed literally over the Document:
//   - row 0 is the root, rows are distinct live nodes, and each row's kid
//     range holds, in sibling order, exactly the children whose label some
//     edge DFA can move on;
//   - every DeliversRow/RealizesRow bit equals the definition, Realizes
//     found by exhaustive search over ordered distinct children;
//   - a child of a region row that has no row delivers nothing.
Status CheckTablesVsDefinition(const pattern::TreePattern& pattern,
                               const xml::Document& doc);

// EvaluateSelectedBatch at `jobs` vs one-document-at-a-time serial calls
// (bit-identical, order included).
Status CheckEvalParallelVsSerial(const pattern::TreePattern& pattern,
                                 const std::vector<const xml::Document*>& docs,
                                 int jobs);

// CheckFdBatch at `jobs` vs serial CheckFd per document (bit-identical
// results, violation witnesses included).
Status CheckFdParallelVsSerial(const fd::FunctionalDependency& fd,
                               const std::vector<const xml::Document*>& docs,
                               int jobs);

// Production FD checker (hashed grouping) vs the naive quadratic
// Definition 5 transcription.
Status CheckFdVsNaive(const fd::FunctionalDependency& fd,
                      const xml::Document& doc);

// Automaton-emptiness criterion (CheckIndependence) vs a brute-force
// small-model enumerator deciding Definition 6 membership per document
// via IsInCriterionLanguage:
//   - "independent" must mean no enumerated document lies in L;
//   - a synthesized conflict candidate must itself lie in L.
Status CheckCriterionVsBruteForce(const fd::FunctionalDependency& fd,
                                  const update::UpdateClass& update,
                                  const schema::Schema* schema,
                                  Alphabet* alphabet,
                                  const SmallDocParams& small_docs);

// Worklist emptiness (HedgeAutomaton::IsEmptyLanguage) vs the round-based
// automata::ReferenceIsEmptyLanguage: the verdicts must be equal, and on a
// non-empty language FindWitnessDocument must succeed with a document the
// automaton accepts.
Status CheckEmptinessVsReference(const automata::HedgeAutomaton& automaton,
                                 Alphabet* alphabet);

// The served eval answer vs the generic JSON path, on a random document
// whose text and attribute values come from GenerateEscapeClassString,
// one of them holding a plain run longer than 64 KiB:
//   - serve::MakeEvalResponse, which renders each subtree straight into
//     the line, and MakeOkResponse plus one
//     JsonValue::String(xml::WriteXmlSubtree(...)) per subtree must
//     serialize to the same bytes;
//   - that line, fed through a serve::LineFramer in random chunk sizes and
//     decoded by serve::DecodeEvalResponse as Client::Eval decodes it,
//     must give back the WriteXmlSubtree strings.
Status CheckEvalResponseBytes(uint64_t seed);

struct OracleOptions {
  int jobs = 8;             // parallel leg compared against serial
  uint32_t num_documents = 4;
  uint32_t max_tree_nodes = 10;
  uint32_t small_doc_max_nodes = 4;
};

// Generates a pattern, an FD, an update class, a random hedge automaton
// and a set of random documents from `seed` and runs every oracle above
// (emptiness on the pair's criterion automaton and on the random one).
// One seed = one fully reproducible battery; this is the body of the
// fuzz_differential harness and of the ctest battery.
Status RunOracleBattery(uint64_t seed, const OracleOptions& options = {});

}  // namespace rtp::fuzz

#endif  // RTP_FUZZ_ORACLES_H_
