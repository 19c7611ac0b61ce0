#include "schema/schema.h"

#include <cctype>
#include <set>

#include "regex/regex_parser.h"

namespace rtp::schema {

using automata::Guard;
using automata::HedgeAutomaton;
using automata::StateId;

namespace {

// Collects the label symbols of a content-model AST; rejects wildcards.
Status CollectSymbols(const regex::RegexNode& node, std::set<LabelId>* out) {
  switch (node.kind) {
    case regex::RegexKind::kAny:
      return InvalidArgumentError(
          "the wildcard '_' is not allowed in schema content models; list "
          "the permitted labels explicitly");
    case regex::RegexKind::kSymbol:
      out->insert(node.symbol);
      return Status::OK();
    default:
      for (const auto& child : node.children) {
        RTP_RETURN_IF_ERROR(CollectSymbols(*child, out));
      }
      return Status::OK();
  }
}

// Rewrites a label-alphabet DFA into a state-alphabet DFA using `map`.
// All explicit keys must be in `map` and `otherwise` must be dead.
regex::Dfa RemapSymbols(const regex::Dfa& dfa,
                        const std::map<LabelId, StateId>& map) {
  std::vector<regex::Dfa::State> states(dfa.NumStates());
  for (int32_t i = 0; i < dfa.NumStates(); ++i) {
    const regex::Dfa::State& src = dfa.state(i);
    RTP_CHECK_MSG(src.otherwise == regex::kDeadState,
                  "content-model DFA must not have wildcard transitions");
    states[i].accepting = src.accepting;
    for (const auto& [label, target] : src.next) {
      if (target == regex::kDeadState) continue;
      auto it = map.find(label);
      RTP_CHECK_MSG(it != map.end(), "content-model symbol not mapped");
      states[i].next.emplace(static_cast<LabelId>(it->second), target);
    }
  }
  return regex::Dfa::FromStates(std::move(states), dfa.initial());
}

regex::Dfa EmptyWordOnly() {
  regex::Dfa::State only;
  only.accepting = true;
  return regex::Dfa::FromStates({only}, 0);
}

struct Declaration {
  std::string name;
  std::string content;  // regex text; empty = no children allowed
};

// Minimal tokenizer for the schema DSL.
class SchemaParser {
 public:
  explicit SchemaParser(std::string_view input) : input_(input) {}

  Status Parse(std::vector<Declaration>* elements,
               std::vector<std::string>* roots) {
    RTP_ASSIGN_OR_RETURN(std::string kw, Ident());
    if (kw != "schema" || !Eat('{')) {
      return ParseError("schema must start with 'schema {'");
    }
    while (!Eat('}')) {
      if (Eof()) return ParseError("unterminated schema block");
      RTP_ASSIGN_OR_RETURN(std::string decl, Ident());
      if (decl == "root") {
        while (true) {
          RTP_ASSIGN_OR_RETURN(std::string name, Ident());
          roots->push_back(std::move(name));
          if (Eat(',')) continue;
          if (Eat(';')) break;
          return ParseError("expected ',' or ';' in root declaration");
        }
      } else if (decl == "element") {
        RTP_ASSIGN_OR_RETURN(std::string name, Ident());
        if (!Eat('{')) return ParseError("expected '{' after element name");
        size_t start = pos_;
        while (pos_ < input_.size() && input_[pos_] != '}') ++pos_;
        if (pos_ == input_.size()) return ParseError("unterminated content model");
        std::string content(input_.substr(start, pos_ - start));
        ++pos_;  // consume '}'
        // Trim whitespace.
        while (!content.empty() && std::isspace(
                   static_cast<unsigned char>(content.back()))) {
          content.pop_back();
        }
        size_t lead = 0;
        while (lead < content.size() &&
               std::isspace(static_cast<unsigned char>(content[lead]))) {
          ++lead;
        }
        elements->push_back(Declaration{std::move(name), content.substr(lead)});
      } else {
        return ParseError("unknown schema declaration '" + decl + "'");
      }
    }
    SkipSpace();
    if (pos_ != input_.size()) return ParseError("trailing schema content");
    return Status::OK();
  }

 private:
  bool Eof() {
    SkipSpace();
    return pos_ >= input_.size();
  }
  void SkipSpace() {
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#' && input_.substr(pos_, 5) != "#text") {
        // '#' starts a line comment, as in the pattern DSL ('#text' is the
        // reserved text label; it never appears between declarations, but
        // keep the lexers' rules identical).
        while (pos_ < input_.size() && input_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }
  bool Eat(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  StatusOr<std::string> Ident() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '_' || input_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return ParseError("expected an identifier at offset " +
                        std::to_string(pos_));
    }
    return std::string(input_.substr(start, pos_ - start));
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<Schema> Schema::Parse(Alphabet* alphabet, std::string_view input) {
  std::vector<Declaration> elements;
  std::vector<std::string> roots;
  RTP_RETURN_IF_ERROR(SchemaParser(input).Parse(&elements, &roots));
  std::vector<std::pair<std::string, std::string>> models;
  models.reserve(elements.size());
  for (Declaration& d : elements) {
    models.emplace_back(std::move(d.name), std::move(d.content));
  }
  return Create(alphabet, std::move(models), std::move(roots));
}

StatusOr<Schema> Schema::Create(
    Alphabet* alphabet,
    std::vector<std::pair<std::string, std::string>> element_content_models,
    std::vector<std::string> roots) {
  Schema schema;
  schema.alphabet_ = alphabet;
  if (roots.empty()) {
    return InvalidArgumentError("schema declares no root element");
  }

  // Allocate element states first (content models may reference any
  // declared element).
  for (const auto& [name, _] : element_content_models) {
    if (Alphabet::KindOf(name) != LabelKind::kElement || name == "/") {
      return InvalidArgumentError("'" + name +
                                  "' cannot be declared as an element");
    }
    if (!schema.element_states_
             .emplace(name, schema.automaton_.AddState(false))
             .second) {
      return InvalidArgumentError("element '" + name + "' declared twice");
    }
  }

  // Attribute/text states allocated on demand.
  std::map<std::string, StateId> leaf_states;
  auto leaf_state = [&](const std::string& name) {
    auto [it, inserted] = leaf_states.emplace(name, 0);
    if (inserted) {
      StateId q = schema.automaton_.AddState(false);
      it->second = q;
      schema.automaton_.AddTransition(Guard::Label(alphabet->Intern(name)),
                                      EmptyWordOnly(), q);
    }
    return it->second;
  };

  for (const auto& [name, content] : element_content_models) {
    StateId q = schema.element_states_.at(name);
    regex::Dfa horizontal;
    if (content.empty()) {
      horizontal = EmptyWordOnly();
      schema.content_models_.emplace(name, EmptyWordOnly());
    } else {
      auto ast = regex::ParseRegex(alphabet, content);
      if (!ast.ok()) {
        return ParseError("content model of '" + name +
                          "': " + ast.status().message());
      }
      std::set<LabelId> symbols;
      RTP_RETURN_IF_ERROR(CollectSymbols(**ast, &symbols));
      std::map<LabelId, StateId> symbol_states;
      for (LabelId label : symbols) {
        const std::string& label_name = alphabet->Name(label);
        switch (alphabet->Kind(label)) {
          case LabelKind::kElement: {
            auto it = schema.element_states_.find(label_name);
            if (it == schema.element_states_.end()) {
              return InvalidArgumentError("content model of '" + name +
                                          "' references undeclared element '" +
                                          label_name + "'");
            }
            symbol_states.emplace(label, it->second);
            break;
          }
          case LabelKind::kAttribute:
          case LabelKind::kText:
            symbol_states.emplace(label, leaf_state(label_name));
            break;
        }
      }
      regex::Dfa label_dfa = regex::Dfa::FromAst(**ast).Minimize();
      horizontal = RemapSymbols(label_dfa, symbol_states);
      schema.content_models_.emplace(name, std::move(label_dfa));
    }
    schema.automaton_.AddTransition(Guard::Label(alphabet->Intern(name)),
                                    std::move(horizontal), q);
  }

  // Document root: exactly one of the declared roots as the single child
  // of "/".
  std::vector<StateId> root_states;
  for (const std::string& root : roots) {
    auto it = schema.element_states_.find(root);
    if (it == schema.element_states_.end()) {
      return InvalidArgumentError("root element '" + root + "' not declared");
    }
    root_states.push_back(it->second);
  }
  schema.roots_ = roots;
  StateId doc_state = schema.automaton_.AddState(false);
  schema.automaton_.AddTransition(
      Guard::Label(Alphabet::kRootLabel),
      automata::InterleavedHorizontal({root_states}, {}), doc_state);
  schema.automaton_.AddRootAccepting(doc_state);
  return schema;
}

}  // namespace rtp::schema
