#ifndef RTP_FUZZ_GENERATORS_H_
#define RTP_FUZZ_GENERATORS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/alphabet.h"
#include "common/rng.h"
#include "fd/functional_dependency.h"
#include "pattern/tree_pattern.h"
#include "update/update_class.h"

namespace rtp::fuzz {

// Seeded structured generators for every textual front end plus the
// in-memory FD/update-class instances the differential oracles consume.
// All draws come from the caller's Rng, so (seed, params) reproduces the
// exact input; see docs/FUZZING.md for the reproduction workflow.
//
// The text generators emit *valid* inputs by construction (asserted by
// tests/parser_fuzz_test.cc); MutateBytes then damages them to probe the
// parsers' error paths.
struct TextGenParams {
  uint32_t num_labels = 4;        // label pool "l0".."l<k-1>"
  uint32_t max_regex_nodes = 6;   // leaf budget of a generated regex
  uint32_t wildcard_percent = 15;
  uint32_t max_template_nodes = 4;  // pattern DSL, besides the root
  uint32_t max_schema_elements = 4;
  uint32_t max_xml_nodes = 12;
  uint32_t max_path_steps = 3;  // path-FD step count per item
  uint32_t value_pool = 3;      // leaf values "v0".."v<k-1>"
};

// A regex in the path syntax of regex/regex_parser.h.
std::string GenerateRegexText(Rng* rng, const TextGenParams& params);

// A pattern DSL text (pattern/pattern_parser.h) with a select clause and,
// when `with_context`, a context clause — i.e. parseable as an FD.
std::string GeneratePatternDslText(Rng* rng, const TextGenParams& params,
                                   bool with_context = false);

// A schema DSL text (schema/schema.h): every element used in a content
// model is declared, so the text always compiles.
std::string GenerateSchemaDslText(Rng* rng, const TextGenParams& params);

// A well-formed XML text with attributes, text runs, entities, and the
// occasional comment/PI the parser must skip.
std::string GenerateXmlText(Rng* rng, const TextGenParams& params);

// A path-FD expression (fd/path_fd.h).
std::string GeneratePathFdText(Rng* rng, const TextGenParams& params);

// 1..3 rtpd wire request lines (serve/protocol.h), '\n'-terminated, with
// op-appropriate fields; pattern texts come from GeneratePatternDslText,
// so the serve harness sees requests the daemon could actually execute.
std::string GenerateServeRequestLines(Rng* rng, const TextGenParams& params);

// Printable byte soup (no structure), for pure robustness probing.
std::string GenerateRandomBytes(Rng* rng, size_t max_len);

// Applies 1..max_edits random byte edits (erase / insert / overwrite /
// duplicate a chunk) to `input`.
std::string MutateBytes(std::string_view input, Rng* rng,
                        uint32_t max_edits = 4);

// ---------------------------------------------------------------------------
// Structured instances for the differential oracles. These reuse the
// src/workload random-pattern machinery and guarantee the structural
// invariants the consumers demand (>= 1 selected node; for update classes,
// selected nodes are template leaves, as the independence criterion
// requires).
struct InstanceGenParams {
  uint32_t num_labels = 3;
  uint32_t max_template_nodes = 3;
  uint32_t max_regex_nodes = 3;
  uint32_t wildcard_percent = 15;
  uint32_t num_conditions = 1;  // FD conditions (target is extra)
};

// A random FD whose context is the template root (always a valid context).
fd::FunctionalDependency GenerateFdInstance(Alphabet* alphabet, Rng* rng,
                                            const InstanceGenParams& params);

// A random update class whose selected node is a template leaf.
update::UpdateClass GenerateUpdateClassInstance(
    Alphabet* alphabet, Rng* rng, const InstanceGenParams& params);

// A random pattern over the same "l<k>" label pool (>= 1 selected node).
pattern::TreePattern GeneratePatternInstance(Alphabet* alphabet, Rng* rng,
                                             const InstanceGenParams& params);

}  // namespace rtp::fuzz

#endif  // RTP_FUZZ_GENERATORS_H_
