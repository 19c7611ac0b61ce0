#include "fuzz/harness.h"

#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "fuzz/oracles.h"
#include "guard/guard.h"
#include "pattern/pattern_parser.h"
#include "pattern/pattern_writer.h"
#include "regex/regex.h"
#include "schema/schema.h"
#include "serve/framing.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "workload/random_document.h"
#include "xml/document.h"
#include "xml/xml_io.h"

namespace rtp::fuzz {

namespace {

// The regex/pattern/schema harnesses compile DFAs (subset construction),
// so oversized inputs are truncated to keep single executions bounded;
// the XML parser is linear and gets a larger cap.
constexpr size_t kCompiledInputCap = 1024;
constexpr size_t kXmlInputCap = 1 << 16;

std::string Truncated(const uint8_t* data, size_t size, size_t cap) {
  return std::string(reinterpret_cast<const char*>(data),
                     size < cap ? size : cap);
}

// A small random document over the labels interned so far — after parsing
// an input, that includes exactly the labels the input mentions, which
// makes generated documents likely to exercise the parsed object.
xml::Document RandomDocOverAlphabet(Alphabet* alphabet, Rng* rng,
                                    uint32_t max_nodes) {
  xml::Document doc(alphabet);
  std::vector<xml::NodeId> elements = {doc.root()};
  uint32_t nodes = 1 + static_cast<uint32_t>(rng->Below(max_nodes));
  for (uint32_t i = 0; i < nodes; ++i) {
    xml::NodeId parent = elements[rng->Below(elements.size())];
    LabelId label = static_cast<LabelId>(rng->Below(alphabet->size()));
    if (label == Alphabet::kRootLabel) label = Alphabet::kTextLabel;
    switch (alphabet->Kind(label)) {
      case LabelKind::kText:
        doc.AddText(parent, "v" + std::to_string(rng->Below(2)));
        break;
      case LabelKind::kAttribute:
        doc.AddChild(parent, label, xml::NodeType::kAttribute, "v");
        break;
      case LabelKind::kElement:
        elements.push_back(
            doc.AddChild(parent, label, xml::NodeType::kElement));
        break;
    }
  }
  return doc;
}

void RunRegexHarness(const uint8_t* data, size_t size) {
  Alphabet alphabet;
  std::string input = Truncated(data, size, kCompiledInputCap);
  StatusOr<regex::Regex> re = regex::Regex::Parse(&alphabet, input);
  if (!re.ok()) return;

  // Writer round-trip: the printed AST must reparse to the same language.
  std::string printed = re->ToString(alphabet);
  StatusOr<regex::Regex> reparsed = regex::Regex::Parse(&alphabet, printed);
  RTP_CHECK_MSG(reparsed.ok(), printed.c_str());
  RTP_CHECK_MSG(re->dfa().IsEquivalentTo(reparsed->dfa()), printed.c_str());

  // Dense-table differential: the flat DenseDfa must track the map-based
  // Dfa state-for-state on random words over the input's own labels.
  Rng rng(Rng::SeedFromBytes(data, size));
  const regex::Dfa& dfa = re->dfa();
  const regex::DenseDfa& dense = re->dense_dfa();
  for (int word = 0; word < 16; ++word) {
    int32_t s_map = dfa.initial();
    int32_t s_dense = dense.initial();
    size_t len = rng.Below(7);
    for (size_t i = 0; i < len; ++i) {
      LabelId a = static_cast<LabelId>(rng.Below(alphabet.size()));
      s_map = dfa.Next(s_map, a);
      if (s_dense != regex::kDeadState) s_dense = dense.Next(s_dense, a);
      RTP_CHECK(s_map == s_dense);
      RTP_CHECK(dfa.accepting(s_map) == dense.accepting(s_dense));
    }
  }
}

void RunPatternHarness(const uint8_t* data, size_t size) {
  Alphabet alphabet;
  std::string input = Truncated(data, size, kCompiledInputCap);
  StatusOr<pattern::ParsedPattern> parsed =
      pattern::ParsePattern(&alphabet, input);
  if (!parsed.ok()) return;

  // The parser may only emit structurally valid patterns.
  Status valid = parsed->pattern.Validate();
  RTP_CHECK_MSG(valid.ok(), valid.ToString().c_str());

  // Writer round-trip: serialize, reparse, compare structure.
  std::string printed =
      pattern::PatternToDsl(parsed->pattern, alphabet, parsed->context);
  StatusOr<pattern::ParsedPattern> reparsed =
      pattern::ParsePattern(&alphabet, printed);
  RTP_CHECK_MSG(reparsed.ok(), printed.c_str());
  RTP_CHECK(reparsed->pattern.NumNodes() == parsed->pattern.NumNodes());
  RTP_CHECK(reparsed->pattern.selected().size() ==
            parsed->pattern.selected().size());
  RTP_CHECK(reparsed->context == parsed->context);
  for (pattern::PatternNodeId w = 1; w < parsed->pattern.NumNodes(); ++w) {
    RTP_CHECK(reparsed->pattern.parent(w) == parsed->pattern.parent(w));
    RTP_CHECK_MSG(reparsed->pattern.edge(w).dfa().IsEquivalentTo(
                      parsed->pattern.edge(w).dfa()),
                  printed.c_str());
  }

  // Evaluation differentials on a small document (the reference oracles
  // are exponential in the template, so gate on tiny sizes). The document
  // also draws a label no pattern can name (it is not a DSL token), so
  // the match tables' live region can leave whole subtrees out.
  if (parsed->pattern.NumNodes() <= 5 &&
      !parsed->pattern.selected().empty()) {
    Rng rng(Rng::SeedFromBytes(data, size));
    alphabet.Intern("not named");
    xml::Document doc = RandomDocOverAlphabet(&alphabet, &rng, 10);
    Status agree = CheckDenseVsReference(parsed->pattern, doc);
    RTP_CHECK_MSG(agree.ok(), agree.ToString().c_str());
    agree = CheckTablesVsDefinition(parsed->pattern, doc);
    RTP_CHECK_MSG(agree.ok(), agree.ToString().c_str());
  }
}

void RunSchemaHarness(const uint8_t* data, size_t size) {
  Alphabet alphabet;
  std::string input = Truncated(data, size, kCompiledInputCap);
  StatusOr<schema::Schema> schema = schema::Schema::Parse(&alphabet, input);
  if (!schema.ok()) return;

  // Generator-vs-validator differential: a document sampled from the
  // schema's own content-model DFAs must validate against the compiled
  // hedge automaton.
  workload::RandomDocumentParams params;
  params.seed = Rng::SeedFromBytes(data, size);
  params.soft_max_children = 4;
  // Mutated schemas are often recursive with branching content; a tight
  // node budget keeps one execution bounded (found by this very harness).
  params.max_total_nodes = 2048;
  StatusOr<xml::Document> doc =
      workload::GenerateRandomDocument(*schema, params);
  if (doc.ok()) {
    RTP_CHECK_MSG(schema->Validate(*doc), input.c_str());
  }
}

void CheckStructurallyEqual(const xml::Document& a, const xml::Document& b) {
  RTP_CHECK(a.LiveNodeCount() == b.LiveNodeCount());
  std::vector<std::pair<xml::NodeId, xml::NodeId>> stack = {
      {a.root(), b.root()}};
  while (!stack.empty()) {
    auto [na, nb] = stack.back();
    stack.pop_back();
    RTP_CHECK(a.label_name(na) == b.label_name(nb));
    RTP_CHECK(a.type(na) == b.type(nb));
    RTP_CHECK(a.value(na) == b.value(nb));
    std::vector<xml::NodeId> ka = a.Children(na);
    std::vector<xml::NodeId> kb = b.Children(nb);
    RTP_CHECK(ka.size() == kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
      stack.emplace_back(ka[i], kb[i]);
    }
  }
}

void RunXmlHarness(const uint8_t* data, size_t size) {
  Alphabet alphabet;
  std::string input = Truncated(data, size, kXmlInputCap);
  StatusOr<xml::Document> doc = xml::ParseXml(&alphabet, input);
  if (!doc.ok()) return;

  // Serializer round-trip (both indentation modes reparse to the same
  // tree: whitespace-only text is dropped by the parser).
  bool indent = (Rng::SeedFromBytes(data, size) & 1) != 0;
  std::string printed = xml::WriteXml(*doc, indent);
  StatusOr<xml::Document> reparsed = xml::ParseXml(&alphabet, printed);
  RTP_CHECK_MSG(reparsed.ok(), printed.c_str());
  CheckStructurallyEqual(*doc, *reparsed);
}

void RunDifferentialHarness(const uint8_t* data, size_t size) {
  uint64_t seed = Rng::SeedFromBytes(data, size);
  Status status = RunOracleBattery(seed);
  RTP_CHECK_MSG(status.ok(), status.ToString().c_str());

  // Re-run the same battery under a tight random budget: starving the
  // oracles must only ever surface the guard's resource statuses — never a
  // bogus differential mismatch from comparing a partial result against a
  // complete one, and never a crash on a partially built automaton.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  guard::ExecutionBudget budget;
  budget.max_steps = 1 + static_cast<int64_t>(rng.Below(50'000));
  budget.max_automaton_states = 1 + static_cast<int64_t>(rng.Below(20'000));
  guard::GuardContext ctx(budget);
  guard::ScopedGuard scope(&ctx);
  Status starved = RunOracleBattery(seed);
  RTP_CHECK_MSG(starved.ok() || guard::IsResourceStatus(starved),
                starved.ToString().c_str());
}

void RunServeHarness(const uint8_t* data, size_t size) {
  // Small line cap so mutated inputs actually exercise the oversized
  // paths (the server's real cap is 1 MiB).
  constexpr size_t kMaxServeLine = 512;
  std::string input = Truncated(data, size, kXmlInputCap);

  auto drain = [](serve::LineFramer& framer,
                  std::vector<serve::LineFramer::Line>* out) {
    while (auto line = framer.Next()) out->push_back(std::move(*line));
  };

  // Chunking invariance: the same byte stream, torn at arbitrary write
  // boundaries (as a faulty or malicious peer would deliver it), must
  // frame into exactly the same line sequence as a single feed.
  std::vector<serve::LineFramer::Line> whole_lines;
  serve::LineFramer whole(kMaxServeLine);
  whole.Feed(input);
  drain(whole, &whole_lines);

  std::vector<serve::LineFramer::Line> torn_lines;
  serve::LineFramer torn(kMaxServeLine);
  Rng rng(Rng::SeedFromBytes(data, size));
  size_t off = 0;
  while (off < input.size()) {
    size_t n = 1 + rng.Below(17);
    if (n > input.size() - off) n = input.size() - off;
    torn.Feed(std::string_view(input).substr(off, n));
    drain(torn, &torn_lines);
    off += n;
  }
  RTP_CHECK(whole_lines.size() == torn_lines.size());
  for (size_t i = 0; i < whole_lines.size(); ++i) {
    RTP_CHECK(whole_lines[i].oversized == torn_lines[i].oversized);
    RTP_CHECK(whole_lines[i].text == torn_lines[i].text);
  }

  // Every framed line runs the protocol decode (malformed bytes must
  // yield a Status, never a crash); decodable requests must survive the
  // encoder round-trip field-for-field.
  for (const serve::LineFramer::Line& line : whole_lines) {
    if (line.oversized) continue;
    auto parsed = serve::JsonValue::Parse(line.text);
    if (!parsed.ok()) continue;
    auto req = serve::DecodeRequest(*parsed);
    if (!req.ok()) continue;
    auto round = serve::DecodeRequest(serve::EncodeRequest(*req));
    RTP_CHECK_MSG(round.ok(), round.status().ToString().c_str());
    RTP_CHECK(round->id == req->id);
    RTP_CHECK(round->op == req->op);
    RTP_CHECK(round->tenant == req->tenant);
    RTP_CHECK(round->doc == req->doc);
    RTP_CHECK(round->text == req->text);
    RTP_CHECK(round->fds == req->fds);
    RTP_CHECK(round->classes == req->classes);
    RTP_CHECK(round->schema == req->schema);
    RTP_CHECK(round->has_budget == req->has_budget);
    RTP_CHECK(round->profile == req->profile);
    RTP_CHECK(round->metrics == req->metrics);
  }
}

}  // namespace

const std::vector<HarnessInfo>& AllHarnesses() {
  static const std::vector<HarnessInfo>* harnesses =
      new std::vector<HarnessInfo>{
          {Harness::kRegex, "regex"},
          {Harness::kPattern, "pattern"},
          {Harness::kSchema, "schema"},
          {Harness::kXml, "xml"},
          {Harness::kDifferential, "differential"},
          {Harness::kServe, "serve"},
      };
  return *harnesses;
}

const char* HarnessName(Harness harness) {
  for (const HarnessInfo& info : AllHarnesses()) {
    if (info.harness == harness) return info.name;
  }
  return "unknown";
}

StatusOr<Harness> HarnessByName(std::string_view name) {
  for (const HarnessInfo& info : AllHarnesses()) {
    if (name == info.name) return info.harness;
  }
  return NotFoundError(
      "unknown harness '" + std::string(name) +
      "'; known: regex, pattern, schema, xml, differential, serve");
}

int RunHarnessInput(Harness harness, const uint8_t* data, size_t size) {
  switch (harness) {
    case Harness::kRegex:
      RunRegexHarness(data, size);
      break;
    case Harness::kPattern:
      RunPatternHarness(data, size);
      break;
    case Harness::kSchema:
      RunSchemaHarness(data, size);
      break;
    case Harness::kXml:
      RunXmlHarness(data, size);
      break;
    case Harness::kDifferential:
      RunDifferentialHarness(data, size);
      break;
    case Harness::kServe:
      RunServeHarness(data, size);
      break;
  }
  return 0;
}

}  // namespace rtp::fuzz
