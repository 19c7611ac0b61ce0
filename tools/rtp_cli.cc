// rtp_cli — command-line front end for the library.
//
//   rtp_cli [global flags] validate    <schema-file> <xml-file>
//   rtp_cli [global flags] checkfd     <fd-file> <xml-file>...
//   rtp_cli [global flags] eval        <pattern-file> <xml-file>...
//   rtp_cli [global flags] xpath       <query> <xml-file>
//   rtp_cli [global flags] independent <fd-file> <update-pattern-file>
//                                      [schema-file]
//   rtp_cli [global flags] matrix      <fd-file>[,<fd-file>...]
//                                      <update-file>[,<update-file>...]
//                                      [schema-file]
//   rtp_cli [global flags] materialize <view-pattern-file> <xml-file>
//   rtp_cli [global flags] explain     eval|checkfd|matrix <args...>
//
// `explain` runs the wrapped subcommand with per-operation profiling
// forced on and appends an EXPLAIN ANALYZE-style report per work item
// (phase tree with wall times, metric deltas, guard budget consumption)
// to stdout. The same structured data is available as JSON from any
// supporting subcommand via --profile.
//
// Global flags (accepted anywhere on the command line, any subcommand):
//   --stats[=<file>]     after the command runs, dump the obs metrics
//                        registry as JSON to <file> (or stderr).
//   --profile[=<file>]   collect per-operation query profiles (eval,
//                        checkfd, matrix: one per document / matrix cell)
//                        and dump them as a JSON array to <file> (or
//                        stderr).
//   --prometheus[=<file>] after the command runs, dump the metrics
//                        registry in Prometheus text exposition format.
//   --log-level=<level>  enable structured JSON-lines logging on stderr
//                        (debug|info|warn|error|off; default off, also
//                        settable via RTP_LOG_LEVEL).
//   --trace-out=<file>   record phase spans and write chrome://tracing
//                        JSON to <file>.
//   --jobs=N             worker threads for the batch subcommands (matrix,
//                        multi-document checkfd/eval); 0 means "one per
//                        hardware thread". Results are byte-identical for
//                        every N (default 1: serial).
//   --deadline-ms=N      wall-clock budget (see src/guard). Batch
//                        subcommands apply it per work item (per document
//                        for checkfd/eval, per pair for matrix) and
//                        degrade those items alone; single-shot commands
//                        apply it to the whole command and exit 2 with the
//                        resource status when it trips.
//   --max-states=N       automaton-state quota per budgeted run.
//   --max-memory-mb=N    approximate memory budget (evaluation tables,
//                        dense DFA tables) per budgeted run.
//   --socket=PATH        run eval, checkfd or matrix on the rtpd listening
//                        at PATH (docs/SERVING.md) instead of in process.
//                        Each XML file is loaded into tenant "rtp_cli"
//                        under its path as the document name, and the
//                        budget flags become the request budget. Output
//                        and exit codes are those of the in-process run.
//                        --jobs, --profile, --trace-out and explain only
//                        mean something in process: with --socket they
//                        are usage errors, as are the other subcommands.
//
// checkfd and eval accept several XML files; the documents are processed
// in parallel under --jobs but reported strictly in command-line order,
// and eval prints each document's tuples sorted by document order, so the
// output is deterministic.
//
// Pattern/FD files use the DSL of pattern_parser.h; schema files the DSL
// of schema.h. Exit code 0 means "holds" (valid / satisfied / independent
// — for matrix: every pair independent), 1 means the negative verdict, 2 a
// usage or input error. Input errors print the full status detail (code
// name + message) on stderr.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/automaton_cache.h"
#include "exec/thread_pool.h"
#include "fd/fd_checker.h"
#include "guard/guard.h"
#include "independence/criterion.h"
#include "independence/matrix.h"
#include "automata/pattern_compiler.h"
#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "pattern/dot_export.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "schema/schema.h"
#include "serve/client.h"
#include "update/update_class.h"
#include "view/view.h"
#include "xml/xml_io.h"
#include "xpath/xpath.h"

namespace {

using namespace rtp;

int Usage(const char* detail = nullptr) {
  if (detail != nullptr) std::fprintf(stderr, "error: %s\n", detail);
  std::fprintf(stderr,
               "usage: rtp_cli [flags] validate    <schema-file> <xml-file>\n"
               "       rtp_cli [flags] checkfd     <fd-file> <xml-file>...\n"
               "       rtp_cli [flags] eval        <pattern-file> "
               "<xml-file>...\n"
               "       rtp_cli [flags] xpath       <query> <xml-file>\n"
               "       rtp_cli [flags] independent <fd-file> <update-file> "
               "[schema-file]\n"
               "       rtp_cli [flags] matrix      <fd-file>[,...] "
               "<update-file>[,...] [schema-file]\n"
               "       rtp_cli [flags] materialize <view-file> <xml-file>\n"
               "       rtp_cli [flags] dot         pattern|automaton "
               "<pattern-file>\n"
               "       rtp_cli [flags] explain     eval|checkfd|matrix "
               "<args...>\n"
               "flags: --stats[=<file>]   dump obs metrics JSON after the "
               "command\n"
               "       --profile[=<file>] dump per-operation query profiles "
               "as JSON\n"
               "       --prometheus[=<file>] dump metrics in Prometheus "
               "text format\n"
               "       --log-level=<lvl>  structured logging on stderr "
               "(debug|info|warn|error|off)\n"
               "       --trace-out=<file> write chrome://tracing phase "
               "spans\n"
               "       --jobs=N           worker threads for batch "
               "subcommands (0 = hardware)\n"
               "       --deadline-ms=N    wall-clock budget (per work item "
               "for batch subcommands)\n"
               "       --max-states=N     automaton-state quota per "
               "budgeted run\n"
               "       --max-memory-mb=N  approximate memory budget per "
               "budgeted run\n"
               "       --socket=PATH      run eval, checkfd or matrix on the "
               "rtpd at PATH\n");
  return 2;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

#define CLI_ASSIGN(lhs, expr)                                       \
  auto lhs##_or = (expr);                                           \
  if (!lhs##_or.ok()) {                                             \
    std::fprintf(stderr, "error: %s\n",                             \
                 lhs##_or.status().ToString().c_str());             \
    return 2;                                                       \
  }                                                                 \
  auto lhs = std::move(lhs##_or).value();

int CmdValidate(Alphabet* alphabet, const std::string& schema_path,
                const std::string& xml_path) {
  CLI_ASSIGN(schema_text, ReadFile(schema_path));
  CLI_ASSIGN(xml_text, ReadFile(xml_path));
  CLI_ASSIGN(schema, schema::Schema::Parse(alphabet, schema_text));
  CLI_ASSIGN(doc, xml::ParseXml(alphabet, xml_text));
  bool valid = schema.Validate(doc);
  std::printf("%s\n", valid ? "valid" : "INVALID");
  return valid ? 0 : 1;
}

// Parses every XML file serially (parsing interns labels into the shared
// alphabet, which is not thread-safe); evaluation then runs in parallel.
StatusOr<std::vector<xml::Document>> ParseXmlFiles(
    Alphabet* alphabet, const std::vector<std::string>& paths) {
  std::vector<xml::Document> docs;
  docs.reserve(paths.size());
  for (const std::string& path : paths) {
    RTP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    RTP_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseXml(alphabet, text));
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<const xml::Document*> DocPointers(
    const std::vector<xml::Document>& docs) {
  std::vector<const xml::Document*> ptrs;
  ptrs.reserve(docs.size());
  for (const xml::Document& doc : docs) ptrs.push_back(&doc);
  return ptrs;
}

// How eval, checkfd and matrix run.
struct RunOptions {
  int jobs = 1;
  guard::ExecutionBudget budget;
  std::vector<obs::QueryProfile>* profiles = nullptr;
  // Non-empty: the rtpd socket that runs the op instead of this process.
  std::string socket;
};

// The tenant a --socket run loads its documents into.
constexpr char kServedTenant[] = "rtp_cli";

// The --socket backend of checkfd and eval: loads every XML file into
// kServedTenant under its path, then runs `op` once per document. A budget
// trip degrades its document alone, as in process; any other error fails
// the command.
template <typename Result, typename Op>
StatusOr<std::vector<StatusOr<Result>>> ServePerDocument(
    const std::string& socket, const std::vector<std::string>& xml_paths,
    Op op) {
  RTP_ASSIGN_OR_RETURN(serve::Client client, serve::Client::Connect(socket));
  for (const std::string& path : xml_paths) {
    RTP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    RTP_RETURN_IF_ERROR(client.Load(kServedTenant, path, text));
  }
  std::vector<StatusOr<Result>> results;
  for (const std::string& path : xml_paths) {
    StatusOr<Result> result = op(client, path);
    if (!result.ok() && !guard::IsResourceStatus(result.status())) {
      return result.status();
    }
    results.push_back(std::move(result));
  }
  return results;
}

int CmdCheckFd(Alphabet* alphabet, const std::string& fd_path,
               const std::vector<std::string>& xml_paths,
               const RunOptions& run) {
  CLI_ASSIGN(fd_text, ReadFile(fd_path));
  std::vector<StatusOr<serve::CheckFdResult>> results;
  if (!run.socket.empty()) {
    serve::CallOptions call;
    call.budget = run.budget;
    auto check = [&](serve::Client& client, const std::string& doc) {
      return client.CheckFd(kServedTenant, doc, fd_text, call);
    };
    CLI_ASSIGN(served, ServePerDocument<serve::CheckFdResult>(
                           run.socket, xml_paths, check));
    results = std::move(served);
  } else {
    CLI_ASSIGN(parsed, pattern::ParsePattern(alphabet, fd_text));
    CLI_ASSIGN(fd, fd::FunctionalDependency::FromParsed(std::move(parsed)));
    CLI_ASSIGN(docs, ParseXmlFiles(alphabet, xml_paths));
    fd::BatchCheckOptions options;
    options.jobs = run.jobs;
    options.check.budget = run.budget;
    options.profiles = run.profiles;
    std::vector<fd::CheckResult> checked =
        fd::CheckFdBatch(fd, DocPointers(docs), options);
    for (size_t d = 0; d < checked.size(); ++d) {
      const fd::CheckResult& r = checked[d];
      if (!r.status.ok()) {
        results.push_back(r.status);
        continue;
      }
      results.push_back(serve::CheckFdResult{
          r.satisfied, static_cast<int64_t>(r.num_mappings),
          static_cast<int64_t>(r.num_groups),
          r.satisfied ? "" : r.violation->Describe(docs[d], fd)});
    }
  }
  bool all_satisfied = true;
  bool any_over_budget = false;
  for (size_t d = 0; d < results.size(); ++d) {
    // Single-document invocations keep the historical un-prefixed format.
    if (xml_paths.size() > 1) std::printf("%s: ", xml_paths[d].c_str());
    if (!results[d].ok()) {
      // The budget tripped on this document: there is no verdict, which
      // is neither "satisfied" nor "violated".
      any_over_budget = true;
      std::printf("no verdict (%s)\n", results[d].status().ToString().c_str());
      continue;
    }
    const serve::CheckFdResult& result = *results[d];
    all_satisfied = all_satisfied && result.satisfied;
    std::printf("%s (%lld mappings, %lld groups)\n",
                result.satisfied ? "satisfied" : "VIOLATED",
                static_cast<long long>(result.mappings),
                static_cast<long long>(result.groups));
    if (!result.satisfied) std::printf("%s", result.violation.c_str());
  }
  if (any_over_budget) return 2;
  return all_satisfied ? 0 : 1;
}

// Renders `tuples` sorted by document order (lexicographic preorder
// comparison), not in enumeration order: enumeration order is an
// implementation detail of the match tables, and output must be stable
// for any --jobs value and across evaluator changes. rtpd renders the
// same way.
serve::EvalResult RenderInDocumentOrder(
    const xml::Document& doc,
    std::vector<std::vector<xml::NodeId>> tuples) {
  std::sort(tuples.begin(), tuples.end(),
            [&doc](const std::vector<xml::NodeId>& a,
                   const std::vector<xml::NodeId>& b) {
              for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                uint32_t pa = doc.PreorderIndex(a[i]);
                uint32_t pb = doc.PreorderIndex(b[i]);
                if (pa != pb) return pa < pb;
              }
              return a.size() < b.size();
            });
  serve::EvalResult result;
  for (const auto& tuple : tuples) {
    std::vector<std::string> row;
    for (xml::NodeId n : tuple) {
      row.push_back(xml::WriteXmlSubtree(doc, n, /*indent=*/false));
    }
    result.tuples.push_back(std::move(row));
  }
  return result;
}

int CmdEval(Alphabet* alphabet, const std::string& pattern_path,
            const std::vector<std::string>& xml_paths,
            const RunOptions& run) {
  CLI_ASSIGN(pattern_text, ReadFile(pattern_path));
  std::vector<StatusOr<serve::EvalResult>> results;
  if (!run.socket.empty()) {
    serve::CallOptions call;
    call.budget = run.budget;
    auto eval = [&](serve::Client& client, const std::string& doc) {
      return client.Eval(kServedTenant, doc, pattern_text, call);
    };
    CLI_ASSIGN(served, ServePerDocument<serve::EvalResult>(
                           run.socket, xml_paths, eval));
    results = std::move(served);
  } else {
    CLI_ASSIGN(parsed, pattern::ParsePattern(alphabet, pattern_text));
    CLI_ASSIGN(docs, ParseXmlFiles(alphabet, xml_paths));
    pattern::EvalBatchOptions options;
    options.jobs = run.jobs;
    options.budget = run.budget;
    options.profiles = run.profiles;
    std::vector<Status> statuses;
    auto per_doc = pattern::EvaluateSelectedBatch(
        parsed.pattern, DocPointers(docs), options, &statuses);
    for (size_t d = 0; d < per_doc.size(); ++d) {
      if (statuses[d].ok()) {
        results.push_back(
            RenderInDocumentOrder(docs[d], std::move(per_doc[d])));
      } else {
        results.push_back(statuses[d]);
      }
    }
  }
  bool any_over_budget = false;
  for (size_t d = 0; d < results.size(); ++d) {
    if (xml_paths.size() > 1) std::printf("%s: ", xml_paths[d].c_str());
    if (!results[d].ok()) {
      any_over_budget = true;
      std::printf("no result (%s)\n", results[d].status().ToString().c_str());
      continue;
    }
    std::printf("%zu tuple(s)\n", results[d]->tuples.size());
    for (const auto& tuple : results[d]->tuples) {
      for (size_t i = 0; i < tuple.size(); ++i) {
        std::printf("%s%s", i ? "\t" : "", tuple[i].c_str());
      }
      std::printf("\n");
    }
  }
  return any_over_budget ? 2 : 0;
}

int CmdXPath(Alphabet* alphabet, const std::string& query,
             const std::string& xml_path) {
  CLI_ASSIGN(xml_text, ReadFile(xml_path));
  CLI_ASSIGN(compiled, xpath::CompileXPath(alphabet, query));
  CLI_ASSIGN(doc, xml::ParseXml(alphabet, xml_text));
  std::vector<xml::NodeId> nodes = xpath::EvaluateXPath(compiled, doc);
  std::printf("%zu node(s)\n", nodes.size());
  for (xml::NodeId n : nodes) {
    std::printf("%s\n",
                xml::WriteXmlSubtree(doc, n, /*indent=*/false).c_str());
  }
  return 0;
}

int CmdIndependent(Alphabet* alphabet, const std::string& fd_path,
                   const std::string& update_path,
                   const std::string& schema_path) {
  CLI_ASSIGN(fd_text, ReadFile(fd_path));
  CLI_ASSIGN(update_text, ReadFile(update_path));
  CLI_ASSIGN(fd_parsed, pattern::ParsePattern(alphabet, fd_text));
  CLI_ASSIGN(fd, fd::FunctionalDependency::FromParsed(std::move(fd_parsed)));
  CLI_ASSIGN(u_parsed, pattern::ParsePattern(alphabet, update_text));
  CLI_ASSIGN(cls, update::UpdateClass::FromParsed(std::move(u_parsed)));

  std::optional<schema::Schema> schema_storage;
  const schema::Schema* schema = nullptr;
  if (!schema_path.empty()) {
    CLI_ASSIGN(schema_text, ReadFile(schema_path));
    CLI_ASSIGN(parsed_schema, schema::Schema::Parse(alphabet, schema_text));
    schema_storage = std::move(parsed_schema);
    schema = &*schema_storage;
  }

  independence::CriterionOptions options;
  options.want_conflict_candidate = true;
  CLI_ASSIGN(verdict, independence::CheckIndependence(fd, cls, schema,
                                                      alphabet, options));
  if (verdict.independent) {
    std::printf("independent (criterion IC holds; product size %lld)\n",
                static_cast<long long>(verdict.product_size));
    return 0;
  }
  std::printf("unknown — the criterion cannot rule out an impact\n");
  if (verdict.conflict_candidate.has_value()) {
    std::printf("conflict candidate document:\n%s",
                xml::WriteXml(*verdict.conflict_candidate).c_str());
  }
  return 1;
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    parts.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

// A served matrix as the IndependenceMatrix the in-process path prints.
// Only the code of a tripped cell's status crosses the wire, and it is all
// that ToString prints.
StatusOr<independence::IndependenceMatrix> ToIndependenceMatrix(
    const serve::MatrixResult& served, size_t num_fds, size_t num_classes) {
  if (served.cells.size() != num_fds * num_classes) {
    return TransportError("matrix response has " +
                          std::to_string(served.cells.size()) +
                          " cells, expected " +
                          std::to_string(num_fds * num_classes));
  }
  independence::IndependenceMatrix matrix;
  matrix.num_fds = num_fds;
  matrix.num_classes = num_classes;
  for (const serve::MatrixCell& cell : served.cells) {
    matrix.entries.push_back({cell.fd_index, cell.class_index,
                              cell.independent, cell.product_size,
                              Status(cell.status, "")});
  }
  return matrix;
}

int CmdMatrix(Alphabet* alphabet, const std::string& fd_list,
              const std::string& update_list, const std::string& schema_path,
              const RunOptions& run) {
  std::vector<std::string> fd_paths = SplitCommaList(fd_list);
  std::vector<std::string> update_paths = SplitCommaList(update_list);
  std::vector<std::string> fd_texts;
  for (const std::string& path : fd_paths) {
    CLI_ASSIGN(text, ReadFile(path));
    fd_texts.push_back(std::move(text));
  }
  std::vector<std::string> class_texts;
  for (const std::string& path : update_paths) {
    CLI_ASSIGN(text, ReadFile(path));
    class_texts.push_back(std::move(text));
  }
  std::string schema_text;
  if (!schema_path.empty()) {
    CLI_ASSIGN(text, ReadFile(schema_path));
    schema_text = std::move(text);
  }

  independence::IndependenceMatrix matrix;
  if (!run.socket.empty()) {
    serve::CallOptions call;
    call.budget = run.budget;
    CLI_ASSIGN(client, serve::Client::Connect(run.socket));
    // Only load and quota create a tenant; an empty quota creates it with
    // no default budget, as a load would.
    Status created = client.Quota(kServedTenant, guard::ExecutionBudget{});
    if (!created.ok()) {
      std::fprintf(stderr, "error: %s\n", created.ToString().c_str());
      return 2;
    }
    CLI_ASSIGN(served, client.Matrix(kServedTenant, fd_texts, class_texts,
                                     schema_text, call));
    CLI_ASSIGN(converted, ToIndependenceMatrix(served, fd_paths.size(),
                                               update_paths.size()));
    matrix = std::move(converted);
  } else {
    std::vector<fd::FunctionalDependency> fds;
    fds.reserve(fd_texts.size());
    for (const std::string& text : fd_texts) {
      CLI_ASSIGN(parsed, pattern::ParsePattern(alphabet, text));
      CLI_ASSIGN(fd, fd::FunctionalDependency::FromParsed(std::move(parsed)));
      fds.push_back(std::move(fd));
    }
    std::vector<update::UpdateClass> classes;
    classes.reserve(class_texts.size());
    for (const std::string& text : class_texts) {
      CLI_ASSIGN(parsed, pattern::ParsePattern(alphabet, text));
      CLI_ASSIGN(cls, update::UpdateClass::FromParsed(std::move(parsed)));
      classes.push_back(std::move(cls));
    }
    std::optional<schema::Schema> schema;
    if (!schema_text.empty()) {
      CLI_ASSIGN(parsed_schema, schema::Schema::Parse(alphabet, schema_text));
      schema = std::move(parsed_schema);
    }

    std::vector<const fd::FunctionalDependency*> fd_ptrs;
    for (const auto& fd : fds) fd_ptrs.push_back(&fd);
    std::vector<const update::UpdateClass*> class_ptrs;
    for (const auto& cls : classes) class_ptrs.push_back(&cls);

    independence::MatrixOptions options;
    options.jobs = run.jobs;
    options.cache = &exec::AutomatonCache::Global();
    options.budget = run.budget;
    options.profiles = run.profiles;
    CLI_ASSIGN(computed, independence::ComputeIndependenceMatrix(
                             fd_ptrs, class_ptrs, schema ? &*schema : nullptr,
                             alphabet, options));
    matrix = std::move(computed);
  }

  std::vector<std::string> fd_names;
  for (const std::string& path : fd_paths) fd_names.push_back(Basename(path));
  std::vector<std::string> class_names;
  for (const std::string& path : update_paths) {
    class_names.push_back(Basename(path));
  }
  std::printf("%s", matrix.ToString(fd_names, class_names).c_str());
  size_t independent = 0;
  size_t over_budget = 0;
  for (const auto& entry : matrix.entries) {
    if (entry.independent) ++independent;
    if (!entry.status.ok()) ++over_budget;
  }
  std::printf("%zu/%zu pair(s) independent\n", independent,
              matrix.entries.size());
  // Tripped pairs already count as not-independent (the conservative
  // verdict), so the exit code needs no special case for them.
  if (over_budget > 0) {
    std::printf("%zu pair(s) over budget\n", over_budget);
  }
  return independent == matrix.entries.size() ? 0 : 1;
}

int CmdDot(Alphabet* alphabet, const std::string& what,
           const std::string& pattern_path) {
  CLI_ASSIGN(pattern_text, ReadFile(pattern_path));
  CLI_ASSIGN(parsed, pattern::ParsePattern(alphabet, pattern_text));
  if (what == "pattern") {
    std::printf("%s", pattern::PatternToDot(
                          parsed.pattern, *alphabet,
                          parsed.context.value_or(pattern::kInvalidPatternNode))
                          .c_str());
    return 0;
  }
  if (what == "automaton") {
    automata::HedgeAutomaton automaton = automata::CompilePattern(
        parsed.pattern, automata::MarkMode::kTraceAndSelectedSubtrees);
    std::printf("%s", automata::AutomatonToDot(automaton, *alphabet).c_str());
    return 0;
  }
  std::fprintf(stderr, "error: %s\n",
               InvalidArgumentError("dot target must be 'pattern' or "
                                    "'automaton', got '" +
                                    what + "'")
                   .ToString()
                   .c_str());
  return 2;
}

int CmdMaterialize(Alphabet* alphabet, const std::string& view_path,
                   const std::string& xml_path) {
  CLI_ASSIGN(view_text, ReadFile(view_path));
  CLI_ASSIGN(xml_text, ReadFile(xml_path));
  CLI_ASSIGN(parsed, pattern::ParsePattern(alphabet, view_text));
  CLI_ASSIGN(v, view::View::FromParsed(std::move(parsed)));
  CLI_ASSIGN(doc, xml::ParseXml(alphabet, xml_text));
  xml::Document result = v.Materialize(doc);
  std::printf("%s", xml::WriteXml(result).c_str());
  return 0;
}

// Global observability options extracted from argv.
struct ObsOptions {
  bool stats = false;
  std::string stats_file;  // empty: stderr
  bool profile = false;
  std::string profile_file;  // empty: stderr
  bool prometheus = false;
  std::string prometheus_file;  // empty: stderr
  std::string trace_file;       // empty: tracing off
};

// Writes `content` to `path`, or to `fallback` when path is empty.
bool WriteOutput(const std::string& path, const std::string& content,
                 std::FILE* fallback) {
  if (path.empty()) {
    std::fprintf(fallback, "%s\n", content.c_str());
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << content << "\n";
  return true;
}

// Runs a single-shot command under the global budget (when one is
// configured): the whole command shares one GuardContext, and a trip maps
// to exit code 2 with the resource status on stderr — the command's own
// output is untrustworthy at that point, whatever it printed.
template <typename Fn>
int GuardedRun(const guard::ExecutionBudget& budget, Fn&& fn) {
  guard::OptionalGuardScope scope(budget, /*cancel=*/nullptr);
  int code = fn();
  Status status = guard::CurrentStatus();
  if (!status.ok()) {
    // Commands usually surface the trip through their own Status path and
    // have already printed it; report here only when one claimed success.
    if (code == 0) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    }
    return 2;
  }
  return code;
}

int Dispatch(const std::vector<std::string>& args, const RunOptions& run) {
  if (args.empty()) return Usage();
  const std::string& cmd = args[0];
  size_t argc = args.size();
  if (!run.socket.empty() && cmd != "eval" && cmd != "checkfd" &&
      cmd != "matrix") {
    return Usage("--socket runs only eval, checkfd and matrix");
  }
  const guard::ExecutionBudget& budget = run.budget;
  Alphabet alphabet;
  if (cmd == "explain" && argc >= 2) {
    // `explain X ...` = run `X ...` with profiling forced on, then print
    // the per-item reports. The wrapped command's own stdout still comes
    // first, so scripts can consume either.
    const std::string& sub = args[1];
    if (sub != "eval" && sub != "checkfd" && sub != "matrix") {
      return Usage("explain wraps eval, checkfd, or matrix");
    }
    std::vector<obs::QueryProfile> local;
    RunOptions profiled = run;
    if (profiled.profiles == nullptr) profiled.profiles = &local;
    int code = Dispatch({args.begin() + 1, args.end()}, profiled);
    if (code != 2) {
      for (const obs::QueryProfile& p : *profiled.profiles) {
        std::printf("%s", p.ToText().c_str());
      }
    }
    return code;
  }
  if (cmd == "validate" && argc == 3) {
    return GuardedRun(budget,
                      [&] { return CmdValidate(&alphabet, args[1], args[2]); });
  }
  if (cmd == "checkfd" && argc >= 3) {
    // Batch commands apply the budget per work item (inside the batch
    // API), not ambiently: one runaway document degrades alone.
    return CmdCheckFd(&alphabet, args[1], {args.begin() + 2, args.end()},
                      run);
  }
  if (cmd == "eval" && argc >= 3) {
    return CmdEval(&alphabet, args[1], {args.begin() + 2, args.end()}, run);
  }
  if (cmd == "xpath" && argc == 3) {
    return GuardedRun(budget,
                      [&] { return CmdXPath(&alphabet, args[1], args[2]); });
  }
  if (cmd == "independent" && (argc == 3 || argc == 4)) {
    return GuardedRun(budget, [&] {
      return CmdIndependent(&alphabet, args[1], args[2],
                            argc == 4 ? args[3] : "");
    });
  }
  if (cmd == "matrix" && (argc == 3 || argc == 4)) {
    return CmdMatrix(&alphabet, args[1], args[2], argc == 4 ? args[3] : "",
                     run);
  }
  if (cmd == "materialize" && argc == 3) {
    return GuardedRun(
        budget, [&] { return CmdMaterialize(&alphabet, args[1], args[2]); });
  }
  if (cmd == "dot" && argc == 3) {
    return GuardedRun(budget,
                      [&] { return CmdDot(&alphabet, args[1], args[2]); });
  }
  bool known = cmd == "validate" || cmd == "checkfd" || cmd == "eval" ||
               cmd == "xpath" || cmd == "independent" || cmd == "matrix" ||
               cmd == "materialize" || cmd == "dot" || cmd == "explain";
  std::string detail = known
                           ? "wrong number of arguments for '" + cmd + "'"
                           : "unknown command '" + cmd + "'";
  return Usage(detail.c_str());
}

// Parses "<prefix><positive integer>". Returns -1 on malformed input.
int64_t ParseCountFlag(std::string_view arg, const char* prefix) {
  std::string value(arg.substr(std::strlen(prefix)));
  char* end = nullptr;
  long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || parsed <= 0) return -1;
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  ObsOptions obs_options;
  RunOptions run;
  guard::ExecutionBudget& budget = run.budget;
  // The last flag seen that only means something in process.
  const char* in_process_flag = nullptr;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--stats") {
      obs_options.stats = true;
    } else if (arg.rfind("--stats=", 0) == 0) {
      obs_options.stats = true;
      obs_options.stats_file = arg.substr(std::strlen("--stats="));
    } else if (arg == "--profile") {
      obs_options.profile = true;
      in_process_flag = "--profile";
    } else if (arg.rfind("--profile=", 0) == 0) {
      obs_options.profile = true;
      obs_options.profile_file = arg.substr(std::strlen("--profile="));
      in_process_flag = "--profile";
    } else if (arg == "--prometheus") {
      obs_options.prometheus = true;
    } else if (arg.rfind("--prometheus=", 0) == 0) {
      obs_options.prometheus = true;
      obs_options.prometheus_file = arg.substr(std::strlen("--prometheus="));
    } else if (arg.rfind("--log-level=", 0) == 0) {
      std::string level(arg.substr(std::strlen("--log-level=")));
      if (level == "debug") {
        obs::SetLogLevel(obs::LogLevel::kDebug);
      } else if (level == "info") {
        obs::SetLogLevel(obs::LogLevel::kInfo);
      } else if (level == "warn") {
        obs::SetLogLevel(obs::LogLevel::kWarn);
      } else if (level == "error") {
        obs::SetLogLevel(obs::LogLevel::kError);
      } else if (level == "off") {
        obs::SetLogLevel(obs::LogLevel::kOff);
      } else {
        return Usage("--log-level must be debug|info|warn|error|off");
      }
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      obs_options.trace_file = arg.substr(std::strlen("--trace-out="));
      if (obs_options.trace_file.empty()) {
        return Usage("--trace-out requires a file path");
      }
      in_process_flag = "--trace-out";
    } else if (arg.rfind("--jobs=", 0) == 0) {
      std::string value(arg.substr(std::strlen("--jobs=")));
      char* end = nullptr;
      long parsed = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || parsed < 0 || parsed > 1024) {
        return Usage("--jobs requires an integer in [0, 1024]");
      }
      run.jobs = parsed == 0 ? exec::ThreadPool::DefaultJobs()
                             : static_cast<int>(parsed);
      in_process_flag = "--jobs";
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      budget.deadline_ms = ParseCountFlag(arg, "--deadline-ms=");
      if (budget.deadline_ms < 0) {
        return Usage("--deadline-ms requires a positive integer");
      }
    } else if (arg.rfind("--max-states=", 0) == 0) {
      budget.max_automaton_states = ParseCountFlag(arg, "--max-states=");
      if (budget.max_automaton_states < 0) {
        return Usage("--max-states requires a positive integer");
      }
    } else if (arg.rfind("--max-memory-mb=", 0) == 0) {
      int64_t mb = ParseCountFlag(arg, "--max-memory-mb=");
      if (mb < 0 || mb > (int64_t{1} << 40)) {
        return Usage("--max-memory-mb requires a positive integer");
      }
      budget.max_memory_bytes = mb << 20;
    } else if (arg.rfind("--socket=", 0) == 0) {
      run.socket = arg.substr(std::strlen("--socket="));
      if (run.socket.empty()) return Usage("--socket requires a path");
    } else if (arg.rfind("--", 0) == 0) {
      return Usage(("unknown flag '" + std::string(arg) + "'").c_str());
    } else {
      args.emplace_back(arg);
    }
  }
  if (!run.socket.empty() && in_process_flag != nullptr) {
    return Usage((std::string(in_process_flag) +
                  " runs in process only; it cannot be combined with "
                  "--socket")
                     .c_str());
  }

  obs::TraceSession trace_session;
  if (!obs_options.trace_file.empty()) trace_session.Start();

  std::vector<obs::QueryProfile> profiles;
  if (obs_options.profile) run.profiles = &profiles;
  int exit_code = Dispatch(args, run);

  if (!obs_options.trace_file.empty()) {
    trace_session.Stop();
    if (!WriteOutput(obs_options.trace_file,
                     trace_session.ExportChromeTracing(), stderr)) {
      exit_code = exit_code == 0 ? 2 : exit_code;
    }
  }
  if (obs_options.profile) {
    if (!WriteOutput(obs_options.profile_file, obs::ProfilesToJson(profiles),
                     stderr)) {
      exit_code = exit_code == 0 ? 2 : exit_code;
    }
  }
  if (obs_options.prometheus) {
    if (!WriteOutput(obs_options.prometheus_file, obs::DumpPrometheus(),
                     stderr)) {
      exit_code = exit_code == 0 ? 2 : exit_code;
    }
  }
  if (obs_options.stats) {
    if (!WriteOutput(obs_options.stats_file, obs::DumpJson(), stderr)) {
      exit_code = exit_code == 0 ? 2 : exit_code;
    }
  }
  return exit_code;
}
