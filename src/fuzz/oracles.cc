#include "fuzz/oracles.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "automata/pattern_compiler.h"
#include "automata/product.h"
#include "automata/reference_emptiness.h"
#include "common/rng.h"
#include "fd/fd_checker.h"
#include "fd/reference_checker.h"
#include "fuzz/generators.h"
#include "guard/guard.h"
#include "independence/criterion.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_writer.h"
#include "pattern/reference_evaluator.h"
#include "serve/client.h"
#include "serve/framing.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "workload/random_pattern.h"
#include "xml/xml_io.h"

namespace rtp::fuzz {

namespace {

std::set<std::vector<xml::NodeId>> ReferenceSelectedTuples(
    const pattern::TreePattern& pattern, const xml::Document& doc) {
  std::set<std::vector<xml::NodeId>> tuples;
  for (const pattern::Mapping& m :
       pattern::ReferenceEnumerateMappings(pattern, doc)) {
    std::vector<xml::NodeId> tuple;
    for (const pattern::SelectedNode& s : pattern.selected()) {
      tuple.push_back(m.image[s.node]);
    }
    tuples.insert(tuple);
  }
  return tuples;
}

std::string TupleSetSummary(const std::set<std::vector<xml::NodeId>>& tuples) {
  std::string out = "{";
  for (const auto& tuple : tuples) {
    out += "(";
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(tuple[i]);
    }
    out += ")";
  }
  return out + "}";
}

std::string FdCheckFingerprint(const fd::CheckResult& r) {
  std::string out = r.satisfied ? "sat" : "vio";
  out += ":" + std::to_string(r.num_mappings) + ":" +
         std::to_string(r.num_groups);
  if (r.violation.has_value()) {
    for (xml::NodeId n : r.violation->first.image) {
      out += "," + std::to_string(n);
    }
    out += "|";
    for (xml::NodeId n : r.violation->second.image) {
      out += "," + std::to_string(n);
    }
  }
  return out;
}

// The whole automaton when it is small, its sizes otherwise.
std::string DescribeAutomaton(const automata::HedgeAutomaton& automaton) {
  std::string out = std::to_string(automaton.NumStates()) + " states, " +
                    std::to_string(automaton.transitions().size()) +
                    " transitions, root-accepting {";
  for (automata::StateId q : automaton.root_accepting()) {
    out += " " + std::to_string(q);
  }
  out += " }";
  if (automaton.NumStates() > 16) return out;
  for (const automata::HedgeAutomaton::Transition& t :
       automaton.transitions()) {
    out += "\n  -> " + std::to_string(t.target) + " guard ";
    if (t.guard.kind == automata::Guard::Kind::kLabel) {
      out += "label " + std::to_string(t.guard.label);
    } else {
      out += "any except {";
      for (LabelId l : t.guard.excluded) out += " " + std::to_string(l);
      out += " }";
    }
    out += ", horizontal initial " + std::to_string(t.horizontal.initial());
    for (int32_t h = 0; h < t.horizontal.NumStates(); ++h) {
      const regex::Dfa::State& state = t.horizontal.state(h);
      out += "; " + std::to_string(h) + (state.accepting ? "*" : "") + ":";
      for (const auto& [label, next] : state.next) {
        out += " " + std::to_string(label) + ">" + std::to_string(next);
      }
      out += " else>" + std::to_string(state.otherwise);
    }
  }
  return out;
}

// Delivers and Realizes as pattern/evaluator.h defines them, over the
// Document and the map-based edge DFAs: Delivers tries every endpoint in
// the subtree, Realizes every ordered choice of distinct children. The
// memo only saves repeated work; it does not change what is computed.
class DefinitionTables {
 public:
  DefinitionTables(const pattern::TreePattern& pattern,
                   const xml::Document& doc)
      : pattern_(pattern), doc_(doc) {}

  bool Delivers(xml::NodeId v, pattern::PatternNodeId w, int32_t s) {
    const auto key = std::make_tuple(v, w, s);
    if (auto it = delivers_.find(key); it != delivers_.end()) {
      return it->second;
    }
    const regex::Dfa& dfa = pattern_.edge(w).dfa();
    bool found = false;
    doc_.VisitFrom(v, [&](xml::NodeId u) {
      if (found) return false;
      std::vector<xml::NodeId> path = {u};  // u up to v
      while (path.back() != v) path.push_back(doc_.parent(path.back()));
      int32_t state = s;
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        state = dfa.Next(state, doc_.label(*it));
      }
      found = dfa.accepting(state) && Realizes(u, w);
      return true;
    });
    return delivers_[key] = found;
  }

  bool Realizes(xml::NodeId v, pattern::PatternNodeId w) {
    const auto key = std::make_pair(v, w);
    if (auto it = realizes_.find(key); it != realizes_.end()) {
      return it->second;
    }
    const bool found = Choose(doc_.Children(v), 0, w, 0);
    return realizes_[key] = found;
  }

 private:
  // Can kids[from..] deliver w's outgoing edges j.. in order, each from
  // its initial state, on distinct children?
  bool Choose(const std::vector<xml::NodeId>& kids, size_t from,
              pattern::PatternNodeId w, size_t j) {
    const std::vector<pattern::PatternNodeId>& edges = pattern_.children(w);
    if (j == edges.size()) return true;
    const int32_t init = pattern_.edge(edges[j]).dfa().initial();
    for (size_t i = from; i < kids.size(); ++i) {
      if (Delivers(kids[i], edges[j], init) && Choose(kids, i + 1, w, j + 1)) {
        return true;
      }
    }
    return false;
  }

  const pattern::TreePattern& pattern_;
  const xml::Document& doc_;
  std::map<std::tuple<xml::NodeId, pattern::PatternNodeId, int32_t>, bool>
      delivers_;
  std::map<std::pair<xml::NodeId, pattern::PatternNodeId>, bool> realizes_;
};

}  // namespace

Status CheckTablesVsDefinition(const pattern::TreePattern& pattern,
                               const xml::Document& doc) {
  const pattern::MatchTables tables = pattern::MatchTables::Build(pattern, doc);
  auto fail = [&](const std::string& what) -> Status {
    // A tripped ambient guard leaves partial tables — not a disagreement.
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return InternalError("region tables vs definition: " + what +
                         "; pattern:\n" +
                         pattern::PatternToDsl(pattern, doc.alphabet()) +
                         "document: " + xml::WriteXml(doc, /*indent=*/false));
  };
  auto readable = [&](LabelId a) {
    for (pattern::PatternNodeId w = 1; w < pattern.NumNodes(); ++w) {
      const regex::Dfa& dfa = pattern.edge(w).dfa();
      for (int32_t s = 0; s < dfa.NumStates(); ++s) {
        if (dfa.Next(s, a) != regex::kDeadState) return true;
      }
    }
    return false;
  };

  // The rows are exactly the region: row 0 is the root, and every other
  // row sits in one kid range, after its parent's row.
  std::set<xml::NodeId> live;
  doc.Visit([&](xml::NodeId n) {
    live.insert(n);
    return true;
  });
  const uint32_t rows = static_cast<uint32_t>(tables.NumRows());
  if (rows == 0 || tables.node(0) != doc.root()) {
    return fail("row 0 is not the root");
  }
  std::set<xml::NodeId> seen;
  std::vector<int> kid_of(rows, 0);
  for (uint32_t r = 0; r < rows; ++r) {
    const xml::NodeId v = tables.node(r);
    const std::string at = "row " + std::to_string(r) + " (node " +
                           std::to_string(v) + ")";
    if (live.count(v) == 0) return fail(at + " is not a live node");
    if (!seen.insert(v).second) return fail(at + " repeats a node");
    if (tables.KidBegin(r) > tables.KidEnd(r) || tables.KidEnd(r) > rows) {
      return fail(at + " has a kid range outside the table");
    }
    std::vector<xml::NodeId> kids;
    for (uint32_t k = tables.KidBegin(r); k < tables.KidEnd(r); ++k) {
      if (k <= r) return fail(at + " has kid row " + std::to_string(k));
      ++kid_of[k];
      kids.push_back(tables.node(k));
    }
    std::vector<xml::NodeId> expected;
    for (xml::NodeId c : doc.Children(v)) {
      if (readable(doc.label(c))) expected.push_back(c);
    }
    if (kids != expected) {
      return fail(at + "'s kid range is not its children some edge reads");
    }
  }
  for (uint32_t r = 1; r < rows; ++r) {
    if (kid_of[r] != 1) {
      return fail("row " + std::to_string(r) + " is in " +
                  std::to_string(kid_of[r]) + " kid ranges");
    }
  }

  // Every bit of every row, and the children left without a row.
  DefinitionTables definition(pattern, doc);
  for (uint32_t r = 0; r < rows; ++r) {
    const xml::NodeId v = tables.node(r);
    for (pattern::PatternNodeId w = 0; w < pattern.NumNodes(); ++w) {
      if (tables.RealizesRow(r, w) != definition.Realizes(v, w)) {
        return fail("RealizesRow(" + std::to_string(r) + ", " +
                    std::to_string(w) + ") is " +
                    (tables.RealizesRow(r, w) ? "set" : "clear"));
      }
    }
    for (pattern::PatternNodeId w = 1; w < pattern.NumNodes(); ++w) {
      for (int32_t s = 0; s < pattern.edge(w).dfa().NumStates(); ++s) {
        if (tables.DeliversRow(r, w, s) != definition.Delivers(v, w, s)) {
          return fail("DeliversRow(" + std::to_string(r) + ", " +
                      std::to_string(w) + ", " + std::to_string(s) + ") is " +
                      (tables.DeliversRow(r, w, s) ? "set" : "clear"));
        }
      }
    }
    for (xml::NodeId c : doc.Children(v)) {
      if (readable(doc.label(c))) continue;
      for (pattern::PatternNodeId w = 1; w < pattern.NumNodes(); ++w) {
        for (int32_t s = 0; s < pattern.edge(w).dfa().NumStates(); ++s) {
          if (definition.Delivers(c, w, s)) {
            return fail("node " + std::to_string(c) + " has no row but " +
                        "delivers edge " + std::to_string(w) +
                        " from state " + std::to_string(s));
          }
        }
      }
    }
  }
  return Status::OK();
}

Status CheckDenseVsReference(const pattern::TreePattern& pattern,
                             const xml::Document& doc) {
  std::vector<std::vector<xml::NodeId>> dense =
      pattern::EvaluateSelected(pattern, doc);
  std::set<std::vector<xml::NodeId>> dense_set(dense.begin(), dense.end());
  std::set<std::vector<xml::NodeId>> reference =
      ReferenceSelectedTuples(pattern, doc);
  if (dense_set != reference) {
    // A tripped ambient guard means one side ran on partial tables — not a
    // disagreement. Surface the resource status, never a bogus mismatch.
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return InternalError(
        "dense vs reference evaluation disagree: dense=" +
        TupleSetSummary(dense_set) + " reference=" +
        TupleSetSummary(reference) + " pattern:\n" +
        pattern::PatternToDsl(pattern, doc.alphabet()));
  }
  return Status::OK();
}

Status CheckEvalParallelVsSerial(const pattern::TreePattern& pattern,
                                 const std::vector<const xml::Document*>& docs,
                                 int jobs) {
  if (docs.empty()) return Status::OK();
  std::vector<std::vector<std::vector<xml::NodeId>>> serial;
  for (const xml::Document* doc : docs) {
    serial.push_back(pattern::EvaluateSelected(pattern, *doc));
  }
  std::vector<std::vector<std::vector<xml::NodeId>>> parallel =
      pattern::EvaluateSelectedBatch(pattern, docs, jobs);
  if (parallel != serial) {
    // Pool workers do not inherit this thread's guard: a trip makes the
    // serial side partial while the batch side completed. Not a mismatch.
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return InternalError(
        "EvaluateSelectedBatch(jobs=" + std::to_string(jobs) +
        ") differs from serial evaluation; pattern:\n" +
        pattern::PatternToDsl(pattern, docs[0]->alphabet()));
  }
  return Status::OK();
}

Status CheckFdParallelVsSerial(const fd::FunctionalDependency& fd,
                               const std::vector<const xml::Document*>& docs,
                               int jobs) {
  fd::BatchCheckOptions options;
  options.jobs = jobs;
  std::vector<fd::CheckResult> parallel = fd::CheckFdBatch(fd, docs, options);
  for (size_t i = 0; i < docs.size(); ++i) {
    std::string serial = FdCheckFingerprint(fd::CheckFd(fd, *docs[i]));
    std::string batch = FdCheckFingerprint(parallel[i]);
    if (serial != batch) {
      RTP_RETURN_IF_ERROR(guard::CurrentStatus());
      return InternalError("CheckFdBatch(jobs=" + std::to_string(jobs) +
                           ") differs from serial CheckFd on document " +
                           std::to_string(i) + ": serial=" + serial +
                           " batch=" + batch);
    }
  }
  return Status::OK();
}

Status CheckFdVsNaive(const fd::FunctionalDependency& fd,
                      const xml::Document& doc) {
  bool fast = fd::CheckFd(fd, doc).satisfied;
  bool naive = fd::ReferenceCheckFd(fd, doc);
  if (fast != naive) {
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return InternalError(
        std::string("hashed FD checker says ") +
        (fast ? "satisfied" : "violated") +
        " but the naive quadratic checker says the opposite; fd:\n" +
        fd.ToString(doc.alphabet()));
  }
  return Status::OK();
}

Status CheckCriterionVsBruteForce(const fd::FunctionalDependency& fd,
                                  const update::UpdateClass& update,
                                  const schema::Schema* schema,
                                  Alphabet* alphabet,
                                  const SmallDocParams& small_docs) {
  independence::CriterionOptions options;
  options.want_conflict_candidate = true;
  StatusOr<independence::CriterionResult> result =
      independence::CheckIndependence(fd, update, schema, alphabet, options);
  if (!result.ok()) {
    // A budget trip is a real outcome the caller must see; anything else
    // means the pair is outside the criterion's fragment (e.g. a selected
    // non-leaf) and there is no verdict to cross-check.
    if (guard::IsResourceStatus(result.status())) return result.status();
    return Status::OK();
  }
  if (result->independent) {
    // Emptiness of L must agree with the brute-force membership test on
    // every small document.
    Status found = Status::OK();
    ForEachSmallDocument(alphabet, small_docs, [&](const xml::Document& doc) {
      if (independence::IsInCriterionLanguage(doc, fd, update, schema)) {
        found = InternalError(
            "criterion claims independence (L empty) but a document with " +
            std::to_string(doc.LiveNodeCount()) +
            " nodes is in L per IsInCriterionLanguage; fd:\n" +
            fd.ToString(*alphabet) + "update pattern:\n" +
            pattern::PatternToDsl(update.pattern(), *alphabet));
        return false;
      }
      return true;
    });
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return found;
  }
  if (result->conflict_candidate.has_value() &&
      !independence::IsInCriterionLanguage(*result->conflict_candidate, fd,
                                           update, schema)) {
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return InternalError(
        "synthesized conflict candidate is not in L per "
        "IsInCriterionLanguage; fd:\n" +
        fd.ToString(*alphabet) + "update pattern:\n" +
        pattern::PatternToDsl(update.pattern(), *alphabet));
  }
  return Status::OK();
}

Status CheckEmptinessVsReference(const automata::HedgeAutomaton& automaton,
                                 Alphabet* alphabet) {
  bool empty = automaton.IsEmptyLanguage();
  bool reference = automata::ReferenceIsEmptyLanguage(automaton);
  // Either side may have stopped on a trip: surface it, never a mismatch.
  RTP_RETURN_IF_ERROR(guard::CurrentStatus());
  if (empty != reference) {
    return InternalError(std::string("worklist emptiness says ") +
                         (empty ? "empty" : "non-empty") +
                         " but the round-based reference says the "
                         "opposite; automaton: " +
                         DescribeAutomaton(automaton));
  }
  if (empty) return Status::OK();
  StatusOr<xml::Document> witness = automaton.FindWitnessDocument(alphabet);
  RTP_RETURN_IF_ERROR(guard::CurrentStatus());
  if (!witness.ok()) {
    return InternalError("non-empty language but FindWitnessDocument failed (" +
                         witness.status().ToString() + "); automaton: " +
                         DescribeAutomaton(automaton));
  }
  if (!automaton.Accepts(*witness)) {
    RTP_RETURN_IF_ERROR(guard::CurrentStatus());
    return InternalError("the automaton rejects its own witness " +
                         xml::WriteXml(*witness, /*indent=*/false) +
                         "; automaton: " + DescribeAutomaton(automaton));
  }
  return Status::OK();
}

Status CheckEvalResponseBytes(uint64_t seed) {
  Alphabet alphabet;
  Rng rng(seed);
  xml::Document doc(&alphabet);
  std::vector<xml::NodeId> nodes = {doc.root()};
  std::vector<xml::NodeId> elements = {doc.root()};
  const uint64_t count = 1 + rng.Below(16);
  for (uint64_t i = 0; i < count; ++i) {
    xml::NodeId parent = elements[rng.Below(elements.size())];
    const uint64_t kind = rng.Below(3);
    if (kind == 0) {
      elements.push_back(
          doc.AddElement(parent, "e" + std::to_string(rng.Below(3))));
      nodes.push_back(elements.back());
    } else if (kind == 1 && parent != doc.root()) {
      nodes.push_back(doc.AddAttribute(parent,
                                       "@a" + std::to_string(rng.Below(3)),
                                       GenerateEscapeClassString(&rng)));
    } else {
      nodes.push_back(doc.AddText(parent, GenerateEscapeClassString(&rng)));
    }
  }
  // One value holds a plain run longer than a 64 KiB read.
  nodes.push_back(doc.AddText(elements[rng.Below(elements.size())],
                              GenerateEscapeClassString(&rng, 65'600)));

  std::vector<std::vector<xml::NodeId>> tuples(rng.Below(6));
  for (std::vector<xml::NodeId>& tuple : tuples) {
    tuple.resize(1 + rng.Below(3));
    for (xml::NodeId& n : tuple) n = nodes[rng.Below(nodes.size())];
  }
  const int64_t id = 1 + static_cast<int64_t>(rng.Below(1000));

  std::vector<std::vector<std::string>> want;
  serve::JsonValue rows = serve::JsonValue::Array();
  for (const std::vector<xml::NodeId>& tuple : tuples) {
    std::vector<std::string>& strings = want.emplace_back();
    serve::JsonValue row = serve::JsonValue::Array();
    for (xml::NodeId n : tuple) {
      strings.push_back(xml::WriteXmlSubtree(doc, n, /*indent=*/false));
      row.Push(serve::JsonValue::String(strings.back()));
    }
    rows.Push(std::move(row));
  }
  serve::JsonValue reference = serve::MakeOkResponse(id);
  reference.Add("count",
                serve::JsonValue::Int(static_cast<int64_t>(tuples.size())));
  reference.Add("tuples", std::move(rows));
  const std::string want_line = reference.Serialize();
  const std::string line = serve::MakeEvalResponse(id, doc, tuples).Serialize();
  if (line != want_line) {
    size_t at = 0;
    while (at < line.size() && at < want_line.size() &&
           line[at] == want_line[at]) {
      ++at;
    }
    return InternalError("eval response bytes differ from the JsonValue "
                         "path at offset " + std::to_string(at) + " of " +
                         std::to_string(want_line.size()));
  }

  // The wire: random chunk sizes, from one byte to beyond one 64 KiB read.
  const std::string wire = line + "\n";
  serve::LineFramer framer(std::numeric_limits<size_t>::max());
  std::optional<serve::LineFramer::Line> framed;
  for (size_t off = 0; off < wire.size();) {
    size_t n = 1 + rng.Below(uint64_t{1} << rng.Below(18));
    n = std::min(n, wire.size() - off);
    framer.Feed(std::string_view(wire).substr(off, n));
    off += n;
    std::optional<serve::LineFramer::Line> next = framer.Next();
    if (next.has_value() && (framed.has_value() || off != wire.size())) {
      return InternalError("framer returned a line before the newline");
    }
    if (next.has_value()) framed = std::move(next);
  }
  if (!framed.has_value() || framed->oversized || framed->text != line ||
      framer.HasBufferedData()) {
    return InternalError("framer did not return the eval response line");
  }
  StatusOr<serve::JsonValue> parsed = serve::JsonValue::Parse(framed->text);
  if (!parsed.ok()) return parsed.status();
  StatusOr<serve::EvalResult> decoded =
      serve::DecodeEvalResponse(std::move(parsed).value());
  if (!decoded.ok()) return decoded.status();
  if (decoded->tuples != want) {
    return InternalError("decoded eval tuples differ from WriteXmlSubtree");
  }
  return Status::OK();
}

Status RunOracleBattery(uint64_t seed, const OracleOptions& options) {
  Alphabet alphabet;
  Rng rng(seed);
  InstanceGenParams instance;

  // Small documents: the reference oracles are exponential and the
  // brute-force enumerator combinatorial, so everything stays tiny.
  std::vector<xml::Document> docs;
  for (uint32_t i = 0; i < options.num_documents; ++i) {
    workload::RandomTreeParams tree_params;
    tree_params.seed = rng.Next();
    tree_params.num_labels = instance.num_labels;
    tree_params.max_nodes = options.max_tree_nodes;
    docs.push_back(workload::GenerateRandomTree(&alphabet, tree_params));
  }
  std::vector<const xml::Document*> ptrs;
  for (const xml::Document& doc : docs) ptrs.push_back(&doc);

  auto annotate = [&](Status status) {
    if (status.ok()) return status;
    return Status(status.code(),
                  "[battery seed " + std::to_string(seed) + "] " +
                      status.message());
  };

  pattern::TreePattern pattern =
      GeneratePatternInstance(&alphabet, &rng, instance);
  for (const xml::Document& doc : docs) {
    RTP_RETURN_IF_ERROR(annotate(CheckDenseVsReference(pattern, doc)));
    RTP_RETURN_IF_ERROR(annotate(CheckTablesVsDefinition(pattern, doc)));
  }
  RTP_RETURN_IF_ERROR(
      annotate(CheckEvalParallelVsSerial(pattern, ptrs, options.jobs)));

  fd::FunctionalDependency fd = GenerateFdInstance(&alphabet, &rng, instance);
  for (const xml::Document& doc : docs) {
    RTP_RETURN_IF_ERROR(annotate(CheckFdVsNaive(fd, doc)));
  }
  RTP_RETURN_IF_ERROR(
      annotate(CheckFdParallelVsSerial(fd, ptrs, options.jobs)));

  update::UpdateClass update =
      GenerateUpdateClassInstance(&alphabet, &rng, instance);
  SmallDocParams small_docs;
  small_docs.max_nodes = options.small_doc_max_nodes;
  small_docs.labels.clear();
  for (uint32_t i = 0; i < instance.num_labels; ++i) {
    small_docs.labels.push_back("l" + std::to_string(i));
  }
  small_docs.labels.push_back("#text");
  RTP_RETURN_IF_ERROR(annotate(CheckCriterionVsBruteForce(
      fd, update, /*schema=*/nullptr, &alphabet, small_docs)));

  // The criterion automaton of the same pair, built as CheckIndependence
  // builds it without a schema; its horizontal DFAs have explicit edges
  // only, so a random automaton covers the `otherwise` branch.
  automata::HedgeAutomaton meet = automata::MeetProduct(
      automata::CompilePattern(fd.pattern(),
                               automata::MarkMode::kTraceAndSelectedSubtrees),
      automata::CompilePattern(update.pattern(),
                               automata::MarkMode::kSelectedImagesOnly));
  RTP_RETURN_IF_ERROR(annotate(CheckEmptinessVsReference(
      automata::Intersect(meet, automata::HedgeAutomaton::Universal()),
      &alphabet)));
  RTP_RETURN_IF_ERROR(annotate(CheckEmptinessVsReference(
      GenerateHedgeAutomatonInstance(&alphabet, &rng), &alphabet)));

  RTP_RETURN_IF_ERROR(annotate(CheckEvalResponseBytes(rng.Next())));

  return Status::OK();
}

}  // namespace rtp::fuzz
