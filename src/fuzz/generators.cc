#include "fuzz/generators.h"

#include <iterator>
#include <optional>
#include <vector>

#include "common/check.h"
#include "pattern/pattern_writer.h"
#include "serve/protocol.h"
#include "workload/random_pattern.h"

namespace rtp::fuzz {

namespace {

std::string PoolLabel(Rng* rng, uint32_t num_labels) {
  return "l" + std::to_string(rng->Below(num_labels == 0 ? 1 : num_labels));
}

std::string PoolValue(Rng* rng, uint32_t value_pool) {
  return "v" + std::to_string(rng->Below(value_pool == 0 ? 1 : value_pool));
}

// Recursive regex-text builder over an explicit symbol pool. `budget` is
// the number of symbol/wildcard leaves; compound subexpressions are always
// parenthesized, so the output is valid in any syntactic context.
std::string RegexTextOver(Rng* rng, const std::vector<std::string>& symbols,
                          uint32_t wildcard_percent, uint32_t budget) {
  if (budget <= 1) {
    if (rng->Percent(wildcard_percent)) return "_";
    return symbols[rng->Below(symbols.size())];
  }
  switch (rng->Below(6)) {
    case 0:
    case 1: {  // concatenation
      uint32_t left = 1 + static_cast<uint32_t>(rng->Below(budget - 1));
      return RegexTextOver(rng, symbols, wildcard_percent, left) + "/" +
             RegexTextOver(rng, symbols, wildcard_percent, budget - left);
    }
    case 2: {  // union
      uint32_t left = 1 + static_cast<uint32_t>(rng->Below(budget - 1));
      return "(" + RegexTextOver(rng, symbols, wildcard_percent, left) + "|" +
             RegexTextOver(rng, symbols, wildcard_percent, budget - left) +
             ")";
    }
    case 3:
      return "(" + RegexTextOver(rng, symbols, wildcard_percent, budget - 1) +
             ")*";
    case 4:
      return "(" + RegexTextOver(rng, symbols, wildcard_percent, budget - 1) +
             ")+";
    default:
      return "(" + RegexTextOver(rng, symbols, wildcard_percent, budget - 1) +
             ")?";
  }
}

std::vector<std::string> DefaultSymbolPool(Rng* rng,
                                           const TextGenParams& params) {
  std::vector<std::string> symbols;
  for (uint32_t i = 0; i < params.num_labels; ++i) {
    symbols.push_back("l" + std::to_string(i));
  }
  // A couple of attribute labels and the text marker keep the three label
  // kinds of the paper's alphabet partition in play.
  symbols.push_back("@a0");
  if (rng->Percent(50)) symbols.push_back("@a1");
  symbols.push_back("#text");
  return symbols;
}

uint32_t RegexBudget(Rng* rng, const TextGenParams& params) {
  return 1 + static_cast<uint32_t>(rng->Below(
                 params.max_regex_nodes == 0 ? 1 : params.max_regex_nodes));
}

void AppendXmlContent(Rng* rng, const TextGenParams& params, uint32_t depth,
                      uint32_t* budget, std::string* out) {
  while (*budget > 0 && !rng->Percent(35)) {
    --*budget;
    switch (rng->Below(8)) {
      case 0:  // text run, sometimes with a predefined entity
        *out += PoolValue(rng, params.value_pool);
        if (rng->Percent(30)) *out += "&amp;x&lt;y&gt;";
        break;
      case 1:  // comment (skipped by the parser)
        *out += "<!-- c -->";
        break;
      case 2:  // processing instruction (skipped)
        *out += "<?pi data?>";
        break;
      default: {  // child element
        std::string label = PoolLabel(rng, params.num_labels);
        *out += "<" + label;
        if (rng->Percent(40)) {
          *out += " a0=\"" + PoolValue(rng, params.value_pool) + "\"";
        }
        if (rng->Percent(15)) {
          *out += " a1=\"" + PoolValue(rng, params.value_pool) + "\"";
        }
        if (depth == 0 || rng->Percent(30)) {
          *out += "/>";
        } else {
          *out += ">";
          AppendXmlContent(rng, params, depth - 1, budget, out);
          *out += "</" + label + ">";
        }
      }
    }
  }
}

std::string PathFdItem(Rng* rng, const TextGenParams& params) {
  uint32_t steps = 1 + static_cast<uint32_t>(rng->Below(
                           params.max_path_steps == 0
                               ? 1
                               : params.max_path_steps));
  std::string out;
  for (uint32_t i = 0; i < steps; ++i) {
    if (i > 0) out += "/";
    if (i + 1 == steps && rng->Percent(20)) {
      out += rng->Percent(50) ? "@a0" : "#text";
    } else {
      out += PoolLabel(rng, params.num_labels);
    }
  }
  if (rng->Percent(30)) out += rng->Percent(50) ? "[N]" : "[V]";
  return out;
}

workload::RandomPatternParams ToWorkloadParams(
    const InstanceGenParams& params) {
  workload::RandomPatternParams wp;
  wp.num_labels = params.num_labels;
  wp.max_regex_nodes = params.max_regex_nodes;
  wp.wildcard_percent = params.wildcard_percent;
  return wp;
}

// Random template skeleton with proper edge regexes; the last added node
// never receives children, so it is always a leaf.
pattern::TreePattern RandomTemplate(Alphabet* alphabet, Rng* rng,
                                    const InstanceGenParams& params) {
  workload::RandomPatternParams wp = ToWorkloadParams(params);
  pattern::TreePattern tree;
  uint32_t nodes = 1 + static_cast<uint32_t>(rng->Below(
                           params.max_template_nodes == 0
                               ? 1
                               : params.max_template_nodes));
  for (uint32_t i = 0; i < nodes; ++i) {
    pattern::PatternNodeId parent =
        static_cast<pattern::PatternNodeId>(rng->Below(tree.NumNodes()));
    regex::RegexAst ast =
        workload::GenerateRandomProperRegex(alphabet, wp, rng->Next());
    tree.AddChild(parent, regex::Regex::FromAst(std::move(ast)));
  }
  return tree;
}

pattern::EqualityType RandomEquality(Rng* rng) {
  return rng->Percent(25) ? pattern::EqualityType::kNode
                          : pattern::EqualityType::kValue;
}

}  // namespace

std::string GenerateRegexText(Rng* rng, const TextGenParams& params) {
  return RegexTextOver(rng, DefaultSymbolPool(rng, params),
                       params.wildcard_percent, RegexBudget(rng, params));
}

std::string GeneratePatternDslText(Rng* rng, const TextGenParams& params,
                                   bool with_context) {
  // Build an instance and serialize it: the writer emits exactly the DSL
  // the parser accepts, so validity is by construction.
  InstanceGenParams instance;
  instance.num_labels = params.num_labels;
  instance.max_template_nodes = params.max_template_nodes;
  instance.max_regex_nodes = params.max_regex_nodes;
  instance.wildcard_percent = params.wildcard_percent;
  Alphabet alphabet;
  pattern::TreePattern pattern =
      GeneratePatternInstance(&alphabet, rng, instance);
  std::optional<pattern::PatternNodeId> context;
  if (with_context) context = pattern::TreePattern::kRoot;
  return pattern::PatternToDsl(pattern, alphabet, context);
}

std::string GenerateSchemaDslText(Rng* rng, const TextGenParams& params) {
  uint32_t elements = 1 + static_cast<uint32_t>(rng->Below(
                              params.max_schema_elements == 0
                                  ? 1
                                  : params.max_schema_elements));
  // Content models may use any declared element, attributes and #text, but
  // never the wildcard (rejected by the schema compiler).
  std::vector<std::string> symbols;
  for (uint32_t i = 0; i < elements; ++i) {
    symbols.push_back("e" + std::to_string(i));
  }
  symbols.push_back("@a0");
  symbols.push_back("#text");
  std::string out = "schema {\n  root e0";
  // Occasionally allow several roots.
  if (elements > 1 && rng->Percent(20)) out += ", e1";
  out += ";\n";
  for (uint32_t i = 0; i < elements; ++i) {
    out += "  element e" + std::to_string(i) + " { ";
    if (!rng->Percent(20)) {
      out += RegexTextOver(rng, symbols, /*wildcard_percent=*/0,
                           RegexBudget(rng, params));
      out += " ";
    }
    out += "}\n";
  }
  out += "}\n";
  return out;
}

std::string GenerateXmlText(Rng* rng, const TextGenParams& params) {
  uint32_t budget =
      1 + static_cast<uint32_t>(rng->Below(
              params.max_xml_nodes == 0 ? 1 : params.max_xml_nodes));
  std::string root = PoolLabel(rng, params.num_labels);
  std::string out;
  if (rng->Percent(25)) out += "<?xml version=\"1.0\"?>";
  out += "<" + root;
  if (rng->Percent(30)) {
    out += " a0=\"" + PoolValue(rng, params.value_pool) + "\"";
  }
  out += ">";
  AppendXmlContent(rng, params, /*depth=*/4, &budget, &out);
  out += "</" + root + ">";
  return out;
}

std::string GeneratePathFdText(Rng* rng, const TextGenParams& params) {
  std::string out = "(";
  if (rng->Percent(20)) {
    out += "/";  // context = document root
  } else {
    uint32_t steps = 1 + static_cast<uint32_t>(rng->Below(2));
    for (uint32_t i = 0; i < steps; ++i) {
      out += "/" + PoolLabel(rng, params.num_labels);
    }
  }
  out += ", (";
  uint32_t conditions = static_cast<uint32_t>(rng->Below(3));
  for (uint32_t i = 0; i < conditions; ++i) {
    if (i > 0) out += ", ";
    out += PathFdItem(rng, params);
  }
  out += ") -> " + PathFdItem(rng, params) + ")";
  return out;
}

std::string GenerateServeRequestLines(Rng* rng, const TextGenParams& params) {
  static constexpr const char* kOps[] = {"load",  "eval", "checkfd", "matrix",
                                         "stats", "drop", "quota",   "shutdown"};
  std::string out;
  uint32_t lines = 1 + static_cast<uint32_t>(rng->Below(3));
  for (uint32_t i = 0; i < lines; ++i) {
    serve::Request req;
    req.id = static_cast<int64_t>(rng->Below(1000));
    req.op = kOps[rng->Below(sizeof(kOps) / sizeof(kOps[0]))];
    if (rng->Percent(40)) req.tenant = "t" + std::to_string(rng->Below(3));
    if (req.op == "load") {
      req.doc = "d" + std::to_string(rng->Below(3));
      req.text = GenerateXmlText(rng, params);
    } else if (req.op == "eval" || req.op == "checkfd") {
      req.doc = "d" + std::to_string(rng->Below(3));
      req.text = GeneratePatternDslText(rng, params,
                                        /*with_context=*/req.op == "checkfd");
    } else if (req.op == "matrix") {
      req.fds.push_back(GeneratePatternDslText(rng, params,
                                               /*with_context=*/true));
      req.classes.push_back(GeneratePatternDslText(rng, params));
      if (rng->Percent(30)) req.schema = GenerateSchemaDslText(rng, params);
    } else if (req.op == "stats") {
      req.metrics = rng->Percent(50);
    } else if (req.op == "drop") {
      req.doc = "d" + std::to_string(rng->Below(3));
    } else if (req.op == "quota") {
      req.budget.deadline_ms = static_cast<int64_t>(rng->Below(1000));
      req.has_budget = true;
    }
    if (rng->Percent(20)) {
      req.budget.max_steps = static_cast<int64_t>(rng->Below(10000));
      req.has_budget = true;
    }
    if (rng->Percent(20)) req.profile = true;
    out += serve::EncodeRequest(req).Serialize();
    out += '\n';
  }
  return out;
}

std::string GenerateRandomBytes(Rng* rng, size_t max_len) {
  static constexpr char kChars[] =
      "abcXYZ019 \t\n(){};[]|/*+?=@#<>&\"'-_.,!";
  size_t len = rng->Below(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kChars[rng->Below(sizeof(kChars) - 1)]);
  }
  return out;
}

std::string GenerateEscapeClassString(Rng* rng, size_t long_run) {
  static constexpr std::string_view kSpecials = "\"\\/'<>&";
  static constexpr std::string_view kUtf8[] = {
      "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x8c\xb3"};  // é € 🌳
  static constexpr std::string_view kPlain = "abcdefxyz 0123456789.,;:-_";
  auto plain_run = [&](size_t len, std::string* out) {
    for (size_t i = 0; i < len; ++i) {
      out->push_back(kPlain[rng->Below(kPlain.size())]);
    }
  };
  std::string out;
  const uint64_t pieces = rng->Below(12);
  const uint64_t long_at = rng->Below(pieces + 1);
  for (uint64_t i = 0; i <= pieces; ++i) {
    if (i == long_at) plain_run(long_run, &out);
    if (i == pieces) break;
    switch (rng->Below(4)) {
      case 0:
        out.push_back(kSpecials[rng->Below(kSpecials.size())]);
        break;
      case 1:
        out.push_back(static_cast<char>(1 + rng->Below(0x1f)));
        break;
      case 2:
        out.append(kUtf8[rng->Below(std::size(kUtf8))]);
        break;
      default:
        plain_run(1 + rng->Below(16), &out);
    }
  }
  return out;
}

std::string MutateBytes(std::string_view input, Rng* rng,
                        uint32_t max_edits) {
  std::string out(input);
  uint32_t edits =
      1 + static_cast<uint32_t>(rng->Below(max_edits == 0 ? 1 : max_edits));
  for (uint32_t i = 0; i < edits; ++i) {
    switch (rng->Below(4)) {
      case 0:  // erase one byte
        if (!out.empty()) out.erase(rng->Below(out.size()), 1);
        break;
      case 1:  // insert a printable byte
        out.insert(out.begin() + rng->Below(out.size() + 1),
                   static_cast<char>('!' + rng->Below(90)));
        break;
      case 2:  // overwrite one byte
        if (!out.empty()) {
          out[rng->Below(out.size())] =
              static_cast<char>('!' + rng->Below(90));
        }
        break;
      default: {  // duplicate a chunk (grows repetition-heavy inputs)
        if (out.empty()) break;
        size_t pos = rng->Below(out.size());
        size_t len = 1 + rng->Below(8);
        std::string chunk = out.substr(pos, len);
        out.insert(rng->Below(out.size() + 1), chunk);
      }
    }
  }
  return out;
}

pattern::TreePattern GeneratePatternInstance(Alphabet* alphabet, Rng* rng,
                                             const InstanceGenParams& params) {
  pattern::TreePattern tree = RandomTemplate(alphabet, rng, params);
  uint32_t selected =
      1 + static_cast<uint32_t>(rng->Below(params.num_conditions + 1));
  for (uint32_t i = 0; i < selected; ++i) {
    pattern::PatternNodeId node = 1 + static_cast<pattern::PatternNodeId>(
                                          rng->Below(tree.NumNodes() - 1));
    tree.AddSelected(node, RandomEquality(rng));
  }
  return tree;
}

fd::FunctionalDependency GenerateFdInstance(Alphabet* alphabet, Rng* rng,
                                            const InstanceGenParams& params) {
  pattern::TreePattern tree = RandomTemplate(alphabet, rng, params);
  // Conditions p1..pn then the target q; the root context is an ancestor
  // of every node, so Create cannot fail on the context check.
  for (uint32_t i = 0; i <= params.num_conditions; ++i) {
    pattern::PatternNodeId node = 1 + static_cast<pattern::PatternNodeId>(
                                          rng->Below(tree.NumNodes() - 1));
    tree.AddSelected(node, RandomEquality(rng));
  }
  auto fd = fd::FunctionalDependency::Create(std::move(tree),
                                             pattern::TreePattern::kRoot);
  RTP_CHECK_MSG(fd.ok(), fd.status().ToString().c_str());
  return std::move(fd).value();
}

update::UpdateClass GenerateUpdateClassInstance(
    Alphabet* alphabet, Rng* rng, const InstanceGenParams& params) {
  pattern::TreePattern tree = RandomTemplate(alphabet, rng, params);
  // The last added template node never gained children, so selecting it
  // keeps the class inside the criterion's selected-are-leaves fragment.
  tree.AddSelected(
      static_cast<pattern::PatternNodeId>(tree.NumNodes() - 1),
      pattern::EqualityType::kValue);
  auto cls = update::UpdateClass::Create(std::move(tree));
  RTP_CHECK_MSG(cls.ok(), cls.status().ToString().c_str());
  return std::move(cls).value();
}

automata::HedgeAutomaton GenerateHedgeAutomatonInstance(Alphabet* alphabet,
                                                        Rng* rng) {
  using automata::Guard;
  using automata::StateId;
  constexpr uint32_t kNumLabels = 3;
  automata::HedgeAutomaton automaton;
  auto num_states = static_cast<StateId>(1 + rng->Below(5));
  for (StateId q = 0; q < num_states; ++q) automaton.AddState(rng->Percent(50));
  uint64_t num_transitions = 1 + rng->Below(8);
  for (uint64_t i = 0; i < num_transitions; ++i) {
    Guard guard;
    if (rng->Percent(60)) {
      guard = Guard::Label(alphabet->Intern(PoolLabel(rng, kNumLabels)));
    } else {
      std::vector<LabelId> excluded;
      for (uint32_t l = 0; l < kNumLabels; ++l) {
        if (rng->Percent(30)) {
          excluded.push_back(alphabet->Intern("l" + std::to_string(l)));
        }
      }
      guard = Guard::AnyExcept(std::move(excluded));
    }
    auto num_h = static_cast<int32_t>(1 + rng->Below(3));
    std::vector<regex::Dfa::State> states(num_h);
    for (regex::Dfa::State& state : states) {
      state.accepting = rng->Percent(40);
      for (StateId q = 0; q < num_states; ++q) {
        if (!rng->Percent(40)) continue;
        state.next[static_cast<LabelId>(q)] =
            rng->Percent(15) ? regex::kDeadState
                             : static_cast<int32_t>(rng->Below(num_h));
      }
      if (rng->Percent(50)) {
        state.otherwise = static_cast<int32_t>(rng->Below(num_h));
      }
    }
    auto target = static_cast<StateId>(rng->Below(num_states));
    automaton.AddTransition(std::move(guard),
                            regex::Dfa::FromStates(std::move(states), 0),
                            target);
  }
  for (StateId q = 0; q < num_states; ++q) {
    if (rng->Percent(40)) automaton.AddRootAccepting(q);
  }
  if (automaton.root_accepting().empty()) {
    automaton.AddRootAccepting(static_cast<StateId>(rng->Below(num_states)));
  }
  return automaton;
}

}  // namespace rtp::fuzz
