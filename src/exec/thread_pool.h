#ifndef RTP_EXEC_THREAD_POOL_H_
#define RTP_EXEC_THREAD_POOL_H_

// rtp::exec — parallel execution engine for the batch-shaped workloads of
// the pipeline: the independence matrix (one criterion check per
// (fd, update-class) pair), batch FD verification across documents, and
// multi-document pattern evaluation.
//
// Design:
//   * ThreadPool owns N worker threads that pop tasks from one FIFO
//     queue. The queue is unbounded: its only producer is ParallelFor,
//     which submits at most num_threads() helpers per call, so the queue
//     never holds more than that per caller.
//   * Shutdown is graceful: the destructor drains every queued task, then
//     joins the workers. A task that throws never wedges the pool — the
//     exception is counted (`exec.pool.task_exceptions`) and, for tasks
//     run through ParallelFor, captured and rethrown to the caller.
//
// Observability (see docs/OBSERVABILITY.md for the catalog):
//   counters exec.pool.tasks_submitted / .tasks_executed /
//            .task_exceptions / .parallel_for.calls
//   gauges   exec.pool.threads, exec.pool.queue_depth
//
// Determinism contract: the pool schedules tasks in an unspecified order.
// Every parallel algorithm built on top of it (matrix, CheckFdBatch,
// EvaluateSelectedBatch) writes results into per-task slots fixed before
// submission, so results are bit-identical for any job count — including
// jobs=1, which runs tasks inline on the calling thread without touching
// the pool at all.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rtp::exec {

class ThreadPool {
 public:
  // A reasonable default for --jobs=0: the hardware concurrency (at least
  // 1; std::thread::hardware_concurrency may report 0).
  static int DefaultJobs();

  // Creates `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  // Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task; never blocks. Exceptions escaping `task` are caught
  // and counted; they never terminate a worker.
  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has been executed.
  void Drain();

  // Lifetime counter for tests / introspection.
  uint64_t tasks_executed() const;

 private:
  void WorkerLoop();
  void RunTask(std::function<void()>* task);

  mutable std::mutex mu_;
  std::condition_variable work_available_;  // workers sleep here
  std::condition_variable idle_;            // Drain sleeps here
  std::deque<std::function<void()>> queue_;
  size_t running_ = 0;  // tasks currently executing
  bool stopping_ = false;
  uint64_t executed_ = 0;
  std::vector<std::thread> workers_;
};

// Runs fn(0), ..., fn(n-1), blocking until all calls finished.
//
//   * pool == nullptr: runs inline on the calling thread, in index order —
//     the serial reference path (used for jobs <= 1).
//   * otherwise: indices are submitted to the pool in contiguous chunks;
//     the calling thread also executes chunks, so ParallelFor never
//     deadlocks even when the pool is busy or called from a worker.
//
// If one or more calls throw, the exception of the lowest-indexed failing
// chunk is rethrown after every call has finished (deterministic error
// selection regardless of schedule).
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace rtp::exec

#endif  // RTP_EXEC_THREAD_POOL_H_
