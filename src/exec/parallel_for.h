#ifndef RTP_EXEC_PARALLEL_FOR_H_
#define RTP_EXEC_PARALLEL_FOR_H_

// rtp::exec — fork-join parallelism for the batch-shaped workloads of the
// pipeline: the independence matrix (one criterion check per
// (fd, update-class) pair), batch FD verification across documents, and
// multi-document pattern evaluation. There are no persistent workers:
// each ParallelFor call starts its own helper threads and joins them
// before it returns.
//
// Observability (see docs/OBSERVABILITY.md for the catalog):
//   counters exec.pool.parallel_for.calls / .tasks_executed
//
// Determinism contract: ParallelFor runs its calls in an unspecified
// order. Every parallel algorithm built on it (matrix, CheckFdBatch,
// EvaluateSelectedBatch) writes results into per-index slots fixed before
// the call, so results are bit-identical for any job count — including
// jobs=1, which runs the calls inline on the calling thread.

#include <cstddef>
#include <functional>

namespace rtp::exec {

// A reasonable default for --jobs=0: the hardware concurrency (at least
// 1; std::thread::hardware_concurrency may report 0).
int DefaultJobs();

// Runs fn(0), ..., fn(n-1) on at most min(jobs, n) threads, the calling
// thread included, and returns when every call has finished.
//
//   * min(jobs, n) <= 1: runs inline on the calling thread, in index
//     order — the serial reference path.
//   * otherwise: starts min(jobs, n) - 1 helper threads; they and the
//     caller claim indices from a shared cursor. A nested call starts
//     helpers of its own, so it cannot deadlock.
//
// A throwing call does not stop the others: every index runs, and then
// the exception of the lowest failing index is rethrown (deterministic
// error selection regardless of schedule).
void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn);

}  // namespace rtp::exec

#endif  // RTP_EXEC_PARALLEL_FOR_H_
