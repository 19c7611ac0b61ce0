#ifndef RTP_WORKLOAD_RUNNER_H_
#define RTP_WORKLOAD_RUNNER_H_

// Closed-loop load runner for workload specs (docs/WORKLOADS.md): N
// client threads, each with its own serve::Client connection to a live
// rtpd socket and its own splitmix64 Rng, draw ops from the spec's
// weighted mix and record per-op latency stats. Each thread issues its
// next op as soon as the previous response lands.
//
// Seeding contract: thread seeds derive from the root seed by drawing
// `threads` values from Rng(seed), so (spec, seed, threads) fixes every
// thread's op sequence when the spec is count-based — the
// reproducibility property the load CI leg and the determinism test in
// tests/workload_runner_test.cc enforce. A duration-based spec trades
// that determinism for wall-clock control.
//
// Chaos (docs/ROBUSTNESS.md): when the spec carries a chaos block, each
// measured-phase worker owns a chaos::FaultPlan seeded from (chaos.seed,
// thread index) and draws exactly one fault decision per op, applied to
// the call's first attempt through the resilient client (configured from
// the spec's max_attempts / call_timeout_ms knobs). The same (spec, seed,
// threads) triple therefore reproduces identical per-op injection
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
};

struct RunResult {
  WorkloadStats stats;
  uint64_t ops = 0;     // op executions, successful or not
  uint64_t errors = 0;  // non-OK responses
  // Of `errors`, transport failures (UNAVAILABLE / TRANSPORT_ERROR after
  // the client's retries) vs op-level error responses; rtp_load maps the
  // split onto distinct exit codes.
  uint64_t transport_errors = 0;
  // Chaos faults injected across all threads (0 without a chaos block).
  uint64_t faults_injected = 0;
  // The first failing op (setup first, then the lowest thread index,
  // that thread's first): the op's name plus the Status it yielded.
  // Empty/OK when the run was clean.
  std::string first_error_op;
  Status first_error;
  double elapsed_s = 0;
};

// Runs `spec` against the daemon at options.socket_path. Setup ops run
// first on a dedicated connection; then options.threads workers draw
// from the mix concurrently. Returns an error Status only for
// harness-level failures (cannot connect, invalid options); op-level
// errors are counted in RunResult and surfaced per op.
StatusOr<RunResult> RunWorkload(const WorkloadSpec& spec,
                                const RunnerOptions& options);

}  // namespace rtp::workload

#endif  // RTP_WORKLOAD_RUNNER_H_
