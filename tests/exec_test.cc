// Concurrency tests for the rtp::exec engine: ParallelFor's fork-join
// contract (inline at jobs=1, at most `jobs` threads counting the caller,
// every index once, lowest failing index rethrown after every call) and
// the build-once contract of AutomatonCache. These run under
// -DRTP_SANITIZE=thread in CI (the `exec` ctest label), so every test
// doubles as a data-race probe: keep iteration counts small but
// contention real.

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "automata/pattern_compiler.h"
#include "exec/automaton_cache.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "workload/paper_patterns.h"

namespace rtp::exec {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::Registry().FindOrCreateCounter(name)->value();
}

TEST(ParallelForTest, DefaultJobsIsPositive) { EXPECT_GE(DefaultJobs(), 1); }

// When min(jobs, n) is 1 no thread starts: the calls run on the caller,
// in index order.
TEST(ParallelForTest, NullPoolRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  for (auto [jobs, n] : {std::pair{1, size_t{5}}, std::pair{0, size_t{5}},
                         std::pair{8, size_t{1}}}) {
    std::vector<size_t> order;
    ParallelFor(jobs, n, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    std::vector<size_t> expected(n);
    for (size_t i = 0; i < n; ++i) expected[i] = i;
    EXPECT_EQ(order, expected) << "jobs=" << jobs << " n=" << n;
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(4, kN, [&hits](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// `jobs` counts the calling thread: a jobs=3 call starts two helpers and
// counts each in exec.pool.tasks_executed.
TEST(ParallelForTest, AtMostJobsThreadsTakePart) {
  constexpr int kJobs = 3;
  uint64_t calls_before = CounterValue("exec.pool.parallel_for.calls");
  uint64_t helpers_before = CounterValue("exec.pool.tasks_executed");
  std::mutex mu;
  std::set<std::thread::id> threads;
  ParallelFor(kJobs, 64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::lock_guard<std::mutex> lock(mu);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_GE(threads.size(), 1u);
  EXPECT_LE(threads.size(), static_cast<size_t>(kJobs));
  EXPECT_EQ(CounterValue("exec.pool.parallel_for.calls") - calls_before, 1u);
  EXPECT_EQ(CounterValue("exec.pool.tasks_executed") - helpers_before,
            static_cast<uint64_t>(kJobs - 1));
}

TEST(ParallelForTest, ZeroIterationsIsANoOp) {
  ParallelFor(2, 0, [](size_t) { FAIL() << "must not be called"; });
}

// Every call runs although some throw, and the exception of the lowest
// failing index comes back, at any jobs value; a later call is unaffected.
TEST(ParallelForTest, RethrowsLowestFailingChunkAndPoolSurvives) {
  for (int jobs : {1, 4}) {
    std::atomic<int> ran{0};
    try {
      ParallelFor(jobs, 100, [&ran](size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i % 10 == 3) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "jobs=" << jobs << ": nothing was rethrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "jobs=" << jobs;
    }
    EXPECT_EQ(ran.load(), 100) << "jobs=" << jobs;
  }
  std::atomic<int> count{0};
  ParallelFor(4, 50, [&count](size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelForTest, NestedCallFromWorkerDoesNotDeadlock) {
  std::atomic<int> inner{0};
  // Outer iterations run on helper threads too; each inner call starts
  // helpers of its own, so this must terminate.
  ParallelFor(2, 4, [&inner](size_t) {
    ParallelFor(2, 8, [&inner](size_t) {
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
  EXPECT_EQ(CounterValue("exec.cache.builds") - builds_before, 1u);
}

TEST(AutomatonCacheTest, GlobalIsASingleton) {
  EXPECT_EQ(&AutomatonCache::Global(), &AutomatonCache::Global());
}

}  // namespace
}  // namespace rtp::exec
