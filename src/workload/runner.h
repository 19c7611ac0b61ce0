#ifndef RTP_WORKLOAD_RUNNER_H_
#define RTP_WORKLOAD_RUNNER_H_

// Closed-loop load runner for workload specs (docs/WORKLOADS.md): N
// client threads, each with its own serve::Client connection to a live
// rtpd socket and its own splitmix64 Rng, walk the spec's node graph and
// record per-node latency stats. Each thread issues its next op as soon
// as the previous response lands.
//
// Seeding contract: thread seeds derive from the root seed by drawing
// `threads` values from Rng(seed), so (spec, seed, threads) fixes every
// thread's op sequence when the spec's loops are count-based — the
// reproducibility property the load CI leg and the determinism test in
// tests/workload_runner_test.cc enforce. Duration-based loops and the
// duration_s cap trade that determinism for wall-clock control.
//
// Chaos (docs/ROBUSTNESS.md): when the spec carries a chaos block, each
// measured-phase worker owns a chaos::FaultPlan seeded from (chaos.seed,
// thread index) and draws exactly one fault decision per op, applied to
// the call's first attempt through the resilient client (configured from
// the spec's max_attempts / call_timeout_ms knobs). The same (spec, seed,
// threads) triple therefore reproduces identical per-node injection
// counts — pinned by ToCountsText and the chaos CI leg.

#include <cstdint>
#include <string>

#include "common/status.h"
#include "workload/spec.h"
#include "workload/stats.h"

namespace rtp::workload {

struct RunnerOptions {
  // AF_UNIX socket of the rtpd under load.
  std::string socket_path;
  int threads = 1;
  uint64_t seed = 42;
  // Wall-clock cap for the whole run; 0 = run the spec to completion.
  // Threads stop at the next op boundary once the cap passes (which
  // breaks same-seed count reproducibility when it actually triggers).
  double duration_s = 0;
};

struct RunResult {
  WorkloadStats stats;
  uint64_t ops = 0;     // op-node executions, successful or not
  uint64_t errors = 0;  // non-OK responses
  // Of `errors`, transport failures (UNAVAILABLE / TRANSPORT_ERROR after
  // the client's retries) vs op-level error responses; rtp_load maps the
  // split onto distinct exit codes.
  uint64_t transport_errors = 0;
  // Chaos faults injected across all threads (0 without a chaos block).
  uint64_t faults_injected = 0;
  // The first failing op (lowest thread index, that thread's first):
  // stats key of the node plus the Status it yielded. Empty/OK when the
  // run was clean.
  std::string first_error_node;
  Status first_error;
  double elapsed_s = 0;
  // True when the duration_s cap stopped the run before the spec
  // completed (per-node counts are then not seed-reproducible).
  bool truncated = false;
};

// Runs `spec` against the daemon at options.socket_path. Setup nodes run
// first on a dedicated connection; then options.threads workers run the
// root node concurrently. Returns an error Status only for harness-level
// failures (cannot connect, invalid options); op-level errors are counted
// in RunResult and surfaced per node.
StatusOr<RunResult> RunWorkload(const WorkloadSpec& spec,
                                const RunnerOptions& options);

}  // namespace rtp::workload

#endif  // RTP_WORKLOAD_RUNNER_H_
