#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/check.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace rtp::exec {

int ThreadPool::DefaultJobs() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(num_threads, 1);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  RTP_OBS_GAUGE_SET("exec.pool.threads", n);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
  RTP_CHECK(queue_.empty());  // workers drain every queued task before exiting
}

void ThreadPool::Submit(std::function<void()> task) {
  RTP_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    RTP_OBS_GAUGE_SET("exec.pool.queue_depth", queue_.size());
  }
  RTP_OBS_COUNT("exec.pool.tasks_submitted");
  work_available_.notify_one();
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

uint64_t ThreadPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_available_.wait(lock, [this] { return !queue_.empty() || stopping_; });
    if (queue_.empty()) break;  // stopping and drained: graceful exit
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++running_;
    RTP_OBS_GAUGE_SET("exec.pool.queue_depth", queue_.size());
    lock.unlock();
    RunTask(&task);
    lock.lock();
    --running_;
    ++executed_;
    if (queue_.empty() && running_ == 0) idle_.notify_all();
  }
}

void ThreadPool::RunTask(std::function<void()>* task) {
  try {
    (*task)();
  } catch (...) {
    // A throwing task must never take a worker down; parallel algorithms
    // that care (ParallelFor) capture exceptions in their own state.
    RTP_OBS_COUNT("exec.pool.task_exceptions");
    RTP_LOG(WARN) << "thread pool task threw; exception swallowed by worker";
  }
  RTP_OBS_COUNT("exec.pool.tasks_executed");
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() <= 1) {
    // Serial reference path: index order, exceptions propagate directly.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  RTP_OBS_COUNT("exec.pool.parallel_for.calls");

  // Chunked claiming: helper tasks and the calling thread pull chunk
  // indices from a shared cursor, so the caller always makes progress
  // (never blocks waiting for a queued task to be scheduled) and a nested
  // ParallelFor on a worker thread cannot deadlock.
  size_t num_chunks =
      std::min(n, static_cast<size_t>(pool->num_threads()) * 4);
  size_t chunk_size = (n + num_chunks - 1) / num_chunks;

  struct State {
    std::atomic<size_t> next_chunk{0};
    std::mutex mu;
    std::condition_variable done;
    size_t completed = 0;
    size_t num_chunks;
    std::exception_ptr error;
    size_t error_chunk;
    const std::function<void(size_t)>* fn;
    size_t n;
    size_t chunk_size;
  };
  auto state = std::make_shared<State>();
  state->num_chunks = num_chunks;
  state->error_chunk = num_chunks;
  state->fn = &fn;
  state->n = n;
  state->chunk_size = chunk_size;

  auto run_chunks = [](const std::shared_ptr<State>& s) {
    size_t c;
    while ((c = s->next_chunk.fetch_add(1, std::memory_order_relaxed)) <
           s->num_chunks) {
      size_t begin = c * s->chunk_size;
      size_t end = std::min(begin + s->chunk_size, s->n);
      std::exception_ptr error;
      try {
        for (size_t i = begin; i < end; ++i) (*s->fn)(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(s->mu);
      if (error != nullptr && c < s->error_chunk) {
        s->error = error;
        s->error_chunk = c;
      }
      if (++s->completed == s->num_chunks) s->done.notify_all();
    }
  };

  size_t helpers = std::min(num_chunks - 1,
                            static_cast<size_t>(pool->num_threads()));
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state, run_chunks] { run_chunks(state); });
  }
  run_chunks(state);  // the caller helps until every chunk is claimed

  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done.wait(lock,
                     [&] { return state->completed == state->num_chunks; });
    if (state->error != nullptr) std::rethrow_exception(state->error);
  }
}

}  // namespace rtp::exec
