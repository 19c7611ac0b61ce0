#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace rtp::exec {

int DefaultJobs() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int jobs, size_t n, const std::function<void(size_t)>& fn) {
  const size_t threads = std::min(n, static_cast<size_t>(std::max(jobs, 1)));

  std::atomic<size_t> next{0};
  std::mutex error_mu;
  size_t error_index = n;  // guarded by error_mu
  std::exception_ptr error;
  auto run = [&] {
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  if (threads <= 1) {
    run();  // one claimer: the cursor hands out indices in order
  } else {
    RTP_OBS_COUNT("exec.pool.parallel_for.calls");
    // Declared after the cursor and the error slot, so the helpers are
    // joined before those die on every way out of this block, a failed
    // thread start included.
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (size_t h = 1; h < threads; ++h) {
      helpers.emplace_back(run);
      RTP_OBS_COUNT("exec.pool.tasks_executed");
    }
    run();
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace rtp::exec
