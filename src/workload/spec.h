#ifndef RTP_WORKLOAD_SPEC_H_
#define RTP_WORKLOAD_SPEC_H_

// rtp::workload — declarative workload specs (docs/WORKLOADS.md).
//
// A workload is described entirely by a JSON file: a `setup` list of
// named ops run once before the measurement, a `mix` of named ops with
// integer weights that every client thread draws from, a length (`count`
// ops per thread or `duration_s` seconds), named payload generators
// (rtp::fuzz seeded generators, recorded files, exam-session synthesis —
// see workload/generator.h) and an optional chaos block. Each op maps
// 1:1 onto a serve::Client request wrapper (eval / checkfd / matrix /
// load / stats).
//
// The parser uses the dependency-free serve/json.h value; specs live
// under examples/workloads/. Parsing is strict: unknown keys, unknown
// generator references, malformed payload sourcing and out-of-range
// integers all yield structured Status errors, never crashes — the
// contract pinned by tests/workload_spec_test.cc.
//
// Determinism contract (docs/WORKLOADS.md "Seeding"): a count-based spec
// executes an identical per-thread op sequence for a fixed (spec, seed,
// threads) triple — every random draw (the mix choice, generator
// payloads) comes from the thread's own splitmix64 Rng. The `load` CI
// leg runs the smoke spec twice with one seed and diffs the per-op
// counts.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "chaos/chaos.h"
#include "common/status.h"
#include "fuzz/generators.h"
#include "guard/guard.h"

namespace rtp::workload {

// Sentinel for "no generator".
inline constexpr size_t kNoGenerator = static_cast<size_t>(-1);

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

// One serve::Client call each, timed and counted under the op's name.
enum class OpKind : uint8_t {
  kEval,     // Client::Eval(tenant, doc, pattern_text)
  kCheckFd,  // Client::CheckFd(tenant, doc, fd_text)
  kMatrix,   // Client::Matrix(tenant, fd_texts, class_texts, schema)
  kLoad,     // Client::Load(tenant, doc, xml_text)
  kStats,    // Client::Stats()
};

struct WorkloadOp {
  std::string name;
  OpKind kind = OpKind::kStats;
  std::string doc;                     // eval / checkfd / load
  std::string text;                    // inline payload ("text" or "file")
  size_t generator = kNoGenerator;     // index into WorkloadSpec::generators
  std::vector<std::string> fd_texts;     // matrix
  std::vector<std::string> class_texts;  // matrix
  std::string schema_text;               // matrix (optional)
  // Optional per-request budget, sent as CallOptions::budget.
  guard::ExecutionBudget budget;
  // Positive relative frequency in the mix; 0 for setup ops.
  uint64_t weight = 0;
};

struct WorkloadSpec {
  std::string name;
  // Tenant every request runs under (server creates it on first use).
  std::string tenant = "load";
  std::vector<GeneratorSpec> generators;
  // Run once, in order, single-threaded on the root seed and without
  // chaos, before the measured phase — typically `load` ops.
  std::vector<WorkloadOp> setup;
  // Each measured op is one weighted draw from `mix`.
  std::vector<WorkloadOp> mix;
  // Exactly one is set: measured ops per thread, or seconds per thread.
  uint64_t count = 0;
  double duration_s = 0;

  // Chaos block (docs/WORKLOADS.md "Chaos"): fault-injection rates for
  // the measured phase. The runner builds one FaultPlan per thread from
  // (chaos.seed, thread index). When enabled, workers use a resilient
  // client configured with the knobs below.
  chaos::ChaosConfig chaos;
  int chaos_max_attempts = 3;
  int chaos_call_timeout_ms = 2000;
};

// Parses and validates a spec. `base_dir` resolves "file" references
// (payloads are inlined at parse time, so a parsed spec is self-contained
// and the runner never touches the filesystem); "" means the process cwd.
// Errors are structured: PARSE_ERROR for malformed JSON, INVALID_ARGUMENT
// (naming the offending op or key) for everything else.
StatusOr<WorkloadSpec> ParseWorkloadSpec(std::string_view json_text,
                                         const std::string& base_dir = "");

// Reads `path` and parses it with base_dir = dirname(path).
StatusOr<WorkloadSpec> LoadWorkloadSpecFile(const std::string& path);

}  // namespace rtp::workload

#endif  // RTP_WORKLOAD_SPEC_H_
