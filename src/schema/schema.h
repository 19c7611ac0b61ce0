#ifndef RTP_SCHEMA_SCHEMA_H_
#define RTP_SCHEMA_SCHEMA_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "automata/hedge_automaton.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "regex/regex.h"
#include "xml/document.h"

namespace rtp::schema {

// A DTD-like schema, compiled to a deterministic bottom-up hedge automaton
// (the regular Bottom-Up tree automaton A_S the paper assumes for the
// schema S). Textual form:
//
//   schema {
//     root session;
//     element session { candidate* }
//     element candidate { @IDN / exam+ / level / (toBePassed|firstJob-Year) }
//     element exam { discipline / date / mark / rank }
//     element discipline { #text }
//     element toBePassed { discipline+ }
//     ...
//   }
//
// A content model is a regex (regex_ast.h syntax, '/' = concatenation)
// over child element labels, attribute labels ('@'-prefixed) and '#text';
// "{ }" declares an empty element. Every label used in a content model
// must be declared (attributes and #text are implicitly declared). A
// document is valid iff its root's children match root-decl content
// (exactly one allowed root element by default) and every element matches
// its declaration.
class Schema {
 public:
  // Parses the DSL and compiles the automaton.
  static StatusOr<Schema> Parse(Alphabet* alphabet, std::string_view input);

  // Programmatic construction: declared elements with content models, plus
  // the allowed root elements.
  static StatusOr<Schema> Create(
      Alphabet* alphabet, std::vector<std::pair<std::string, std::string>>
                              element_content_models,
      std::vector<std::string> roots);

  const automata::HedgeAutomaton& automaton() const { return automaton_; }

  bool Validate(const xml::Document& doc) const {
    RTP_OBS_COUNT("schema.validations");
    return automaton_.Accepts(doc);
  }

  // Declared elements with their content-model DFAs over *label* symbols
  // (an element with no children allowed maps to the empty-word DFA).
  // Drives the schema-directed random document generator.
  const std::map<std::string, regex::Dfa>& content_models() const {
    return content_models_;
  }
  const std::vector<std::string>& roots() const { return roots_; }

  Alphabet* alphabet() const { return alphabet_; }

 private:
  Schema() = default;

  Alphabet* alphabet_ = nullptr;
  std::map<std::string, automata::StateId> element_states_;
  std::map<std::string, regex::Dfa> content_models_;
  std::vector<std::string> roots_;
  automata::HedgeAutomaton automaton_;
};

}  // namespace rtp::schema

#endif  // RTP_SCHEMA_SCHEMA_H_
