// Alphabet under concurrent interning: writers intern overlapping sets of
// fresh names while readers resolve ids they already hold. Runs in the
// `exec` binary, so the TSan leg checks the lock-free reads.

#include "common/alphabet.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace rtp {
namespace {

TEST(AlphabetConcurrencyTest, ConcurrentInternKeepsIdsDenseAndReadsStable) {
  Alphabet alphabet;
  // Held before any writer starts: element and attribute names.
  std::vector<std::string> held_names;
  std::vector<LabelId> held_ids;
  for (int i = 0; i < 50; ++i) {
    held_names.push_back((i % 2 == 0 ? "held" : "@held") + std::to_string(i));
    held_ids.push_back(alphabet.Intern(held_names.back()));
  }

  // Writer w interns names [w * kStride, w * kStride + kPerWriter), so
  // neighbours overlap by half; 5,000 distinct names fill chunks of 64
  // up to 4,096 names.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  constexpr int kStride = 1000;
  constexpr int kReaders = 2;
  auto fresh = [](int i) {
    return (i % 3 == 0 ? "@f" : "f") + std::to_string(i);
  };

  std::vector<std::vector<LabelId>> got(kWriters);
  std::atomic<bool> writers_done{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Alternate directions so writers meet on the shared names.
      for (int k = 0; k < kPerWriter; ++k) {
        int i = w * kStride + (w % 2 == 0 ? k : kPerWriter - 1 - k);
        got[w].push_back(alphabet.Intern(fresh(i)));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      size_t last_size = 0;
      do {
        for (size_t j = 0; j < held_ids.size(); ++j) {
          const std::string& name = held_names[j];
          if (alphabet.Name(held_ids[j]) != name ||
              alphabet.Kind(held_ids[j]) != Alphabet::KindOf(name) ||
              alphabet.Find(name) != held_ids[j]) {
            ++bad_reads;
          }
        }
        // Every id below size() is readable, the newest one included.
        size_t size = alphabet.size();
        if (size < last_size) ++bad_reads;
        last_size = size;
        LabelId newest = static_cast<LabelId>(size - 1);
        if (alphabet.Find(alphabet.Name(newest)) != newest) ++bad_reads;
      } while (!writers_done.load(std::memory_order_acquire));
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(bad_reads.load(), 0);

  // Each name has exactly one id, whichever writer interned it first.
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_EQ(got[w].size(), static_cast<size_t>(kPerWriter));
    for (int k = 0; k < kPerWriter; ++k) {
      int i = w * kStride + (w % 2 == 0 ? k : kPerWriter - 1 - k);
      EXPECT_EQ(alphabet.Find(fresh(i)), got[w][k]) << fresh(i);
      EXPECT_EQ(alphabet.Name(got[w][k]), fresh(i));
    }
  }
  // Ids are dense: 2 reserved + 50 held + 5,000 fresh, each id naming a
  // distinct name that maps back to it.
  const size_t distinct = (kWriters - 1) * kStride + kPerWriter;
  ASSERT_EQ(alphabet.size(), 2 + held_ids.size() + distinct);
  std::set<std::string> names;
  for (LabelId id = 0; id < alphabet.size(); ++id) {
    EXPECT_EQ(alphabet.Find(alphabet.Name(id)), id);
    names.insert(alphabet.Name(id));
  }
  EXPECT_EQ(names.size(), alphabet.size());
  for (int i = 0; i < static_cast<int>(distinct); ++i) {
    EXPECT_EQ(alphabet.Name(alphabet.Intern(fresh(i))), fresh(i));
  }
  EXPECT_EQ(alphabet.size(), 2 + held_ids.size() + distinct);
}

}  // namespace
}  // namespace rtp
