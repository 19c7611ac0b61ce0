#ifndef RTP_WORKLOAD_SPEC_H_
#define RTP_WORKLOAD_SPEC_H_

// rtp::workload v2 — declarative workload specs (docs/WORKLOADS.md).
//
// A workload is described entirely by a JSON file (genny-style: no code
// needed to define or change one): a named graph of nodes, where op nodes
// map 1:1 onto the serve::Client request wrappers (eval / checkfd /
// matrix / load / stats), control nodes compose them (random_choice with
// integer weights, sequence, do_all, loop by count or duration, nested
// sub-workloads), and generator specs describe payload sources (rtp::fuzz
// seeded generators, recorded files, exam-session synthesis — see
// workload/generator.h).
//
// The parser uses the dependency-free serve/json.h value; specs live
// under examples/workloads/. Parsing is strict: unknown keys, unknown
// node/generator references, malformed payload sourcing, and cycles in
// the node graph all yield structured Status errors, never crashes — the
// contract pinned by tests/workload_spec_test.cc.
//
// Determinism contract (docs/WORKLOADS.md "Seeding"): a spec whose loops
// are all count-based executes an identical per-thread op sequence for a
// fixed (spec, seed, threads) triple — every random draw (random_choice,
// generator payloads) comes from the thread's own splitmix64 Rng. The
// `load` CI leg runs the smoke spec twice with one seed and diffs the
// per-node op counts.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/chaos.h"
#include "common/status.h"
#include "fuzz/generators.h"
#include "guard/guard.h"

namespace rtp::workload {

// Sentinel for "no node reference".
inline constexpr size_t kNoNode = static_cast<size_t>(-1);

// A named payload source (workload/generator.h). `kind` is one of the five
// generator kinds; the fuzz_* kinds get their TextGenParams pre-parsed into
// `text_params`.
struct GeneratorSpec {
  std::string name;
  std::string kind;
  fuzz::TextGenParams text_params;
  uint32_t exam_candidates = 16;
  // Recorded payloads for the "file" kind, loaded at parse time (paths in
  // the spec resolve relative to the spec file's directory), cycled
  // round-robin per generator instance.
  std::vector<std::string> payloads;
};

enum class NodeKind : uint8_t {
  // Op nodes — one serve::Client call each, timed and counted per node.
  kEval = 0,   // Client::Eval(tenant, doc, pattern_text)
  kCheckFd,    // Client::CheckFd(tenant, doc, fd_text)
  kMatrix,     // Client::Matrix(tenant, fd_texts, class_texts, schema)
  kLoad,       // Client::Load(tenant, doc, xml_text)
  kStats,      // Client::Stats()
  // Control nodes — compose the graph, not timed.
  kRandomChoice,  // one weighted child per execution
  kSequence,      // children in order
  kDoAll,         // all children, then continue (join barrier)
  kLoop,          // body, `count` times or for `duration_s`
  kWorkload,      // nested sub-workload with its own node namespace
};

const char* NodeKindName(NodeKind kind);

struct WorkloadSpec;

struct WorkloadNode {
  std::string name;
  NodeKind kind = NodeKind::kSequence;

  // --- op payload ---------------------------------------------------
  std::string doc;        // target document name (eval/checkfd/load)
  std::string text;       // inline payload ("text" or preloaded "file")
  size_t generator = kNoNode;  // index into WorkloadSpec::generators
  std::vector<std::string> fd_texts;     // matrix
  std::vector<std::string> class_texts;  // matrix
  std::string schema_text;               // matrix (optional)
  // Optional per-request budget, sent as CallOptions::budget.
  guard::ExecutionBudget budget;

  // --- control payload ----------------------------------------------
  std::vector<size_t> children;     // random_choice / sequence / do_all
  std::vector<uint64_t> weights;    // random_choice (positive integers)
  size_t body = kNoNode;            // loop
  uint64_t count = 0;               // loop: iterations (exclusive with
  double duration_s = 0;            //   duration_s)
  std::unique_ptr<WorkloadSpec> sub;  // nested workload

  bool IsOp() const { return kind <= NodeKind::kStats; }
};

struct WorkloadSpec {
  std::string name;
  // Tenant every request runs under (server creates it on first use).
  std::string tenant = "load";
  size_t root = kNoNode;
  // Node indices executed exactly once (single-threaded, root seed)
  // before the measured per-thread phase — typically `load` ops.
  std::vector<size_t> setup;
  std::vector<WorkloadNode> nodes;
  std::vector<GeneratorSpec> generators;

  // Chaos block (docs/WORKLOADS.md "Chaos"): fault-injection rates for
  // the measured phase (setup always runs clean). Only the top-level
  // spec's block applies — the runner builds one FaultPlan per thread
  // from (chaos.seed, thread index). When enabled, workers use a
  // resilient client configured with the knobs below.
  chaos::ChaosConfig chaos;
  int chaos_max_attempts = 3;
  int chaos_call_timeout_ms = 2000;

  const WorkloadNode& node(size_t i) const { return nodes[i]; }
  // Index of the named node, or kNoNode.
  size_t FindNode(std::string_view node_name) const;
};

// Parses and validates a spec. `base_dir` resolves "file" references
// (payloads are inlined at parse time, so a parsed spec is self-contained
// and the runner never touches the filesystem); "" means the process cwd.
// Errors are structured: PARSE_ERROR for malformed JSON, INVALID_ARGUMENT
// (naming the offending node) for semantic problems including cycles,
// RESOURCE_EXHAUSTED for over-deep nesting.
StatusOr<WorkloadSpec> ParseWorkloadSpec(std::string_view json_text,
                                         const std::string& base_dir = "");

// Reads `path` and parses it with base_dir = dirname(path).
StatusOr<WorkloadSpec> LoadWorkloadSpecFile(const std::string& path);

}  // namespace rtp::workload

#endif  // RTP_WORKLOAD_SPEC_H_
