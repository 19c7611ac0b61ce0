// Concurrency tests for the rtp::exec engine: ThreadPool scheduling,
// ParallelFor coverage and error propagation, and the build-once contract
// of AutomatonCache. These run under -DRTP_SANITIZE=thread in CI (the
// `exec` ctest label), so every test doubles as a data-race probe: keep
// iteration counts small but contention real.

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "automata/pattern_compiler.h"
#include "exec/automaton_cache.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "workload/paper_patterns.h"

namespace rtp::exec {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::Registry().FindOrCreateCounter(name)->value();
}

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.tasks_executed(), 100u);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // No Drain: the destructor must run everything already queued.
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, TaskExceptionDoesNotWedgePool) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([] { throw std::runtime_error("boom"); });
  pool.Drain();
  // The pool is still functional afterwards.
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, DefaultJobsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultJobs(), 1);
}

TEST(ParallelForTest, NullPoolRunsInlineInIndexOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 5, [&order](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, [&hits](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, RethrowsLowestFailingChunkAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [](size_t i) {
                    if (i % 10 == 3) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool is not wedged: a subsequent ParallelFor completes.
  std::atomic<int> count{0};
  ParallelFor(&pool, 50, [&count](size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelForTest, NestedCallFromWorkerDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  // Outer iterations run on workers; each runs an inner ParallelFor on the
  // same (already busy) pool. The chunk-claiming design lets the worker
  // execute the inner chunks itself, so this must terminate.
  ParallelFor(&pool, 4, [&pool, &inner](size_t) {
    ParallelFor(&pool, 8, [&inner](size_t) {
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner.load(), 32);
}

TEST(MemoMapTest, ContendedGetOrBuildBuildsExactlyOnce) {
  internal::MemoMap<int> map;
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const int>> results(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&map, &builds, &results, t] {
      results[t] = map.GetOrBuild("key", [&builds] {
        builds.fetch_add(1, std::memory_order_relaxed);
        // Widen the race window so waiters really block on the future.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return 42;
      });
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);
  for (int t = 0; t < 8; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(*results[t], 42);
    // Everyone shares the one built object.
    EXPECT_EQ(results[t].get(), results[0].get());
  }
  EXPECT_EQ(map.size(), 1u);
}

TEST(MemoMapTest, BuilderExceptionPropagatesAndEntryRetries) {
  internal::MemoMap<int> map;
  EXPECT_THROW(map.GetOrBuild(
                   "key", []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(map.size(), 0u);  // failed entry was erased...
  auto value = map.GetOrBuild("key", [] { return 7; });  // ...so retry works
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 7);
}

TEST(MemoMapTest, ClearKeepsOutstandingPointersValid) {
  internal::MemoMap<std::string> map;
  auto value = map.GetOrBuild("key", [] { return std::string("alive"); });
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(*value, "alive");  // shared_ptr keeps the object alive
}

TEST(AutomatonCacheTest, PatternKeyDistinguishesMarkModes) {
  Alphabet alphabet;
  pattern::ParsedPattern parsed = workload::PaperUpdateU(&alphabet);
  std::string trace_key = AutomatonCache::PatternKey(
      parsed.pattern, alphabet, automata::MarkMode::kTraceAndSelectedSubtrees);
  std::string image_key = AutomatonCache::PatternKey(
      parsed.pattern, alphabet, automata::MarkMode::kSelectedImagesOnly);
  EXPECT_NE(trace_key, image_key);
}

TEST(AutomatonCacheTest, RepeatedGetReturnsSameAutomaton) {
  Alphabet alphabet;
  pattern::ParsedPattern parsed = workload::PaperUpdateU(&alphabet);
  AutomatonCache cache;
  auto first = cache.GetPatternAutomaton(
      parsed.pattern, alphabet, automata::MarkMode::kSelectedImagesOnly);
  auto second = cache.GetPatternAutomaton(
      parsed.pattern, alphabet, automata::MarkMode::kSelectedImagesOnly);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(AutomatonCacheTest, ContendedCompileBuildsOnce) {
  Alphabet alphabet;
  pattern::ParsedPattern parsed = workload::PaperFd1(&alphabet);
  AutomatonCache cache;
  uint64_t builds_before = CounterValue("exec.cache.builds");
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const automata::HedgeAutomaton>> results(6);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache.GetPatternAutomaton(
          parsed.pattern, alphabet,
          automata::MarkMode::kTraceAndSelectedSubtrees);
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < 6; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t].get(), results[0].get());
  }
#ifndef RTP_OBS_DISABLED
  EXPECT_EQ(CounterValue("exec.cache.builds") - builds_before, 1u);
#else
  (void)builds_before;
#endif
}

TEST(AutomatonCacheTest, GlobalIsASingleton) {
  EXPECT_EQ(&AutomatonCache::Global(), &AutomatonCache::Global());
}

}  // namespace
}  // namespace rtp::exec
