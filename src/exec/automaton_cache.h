#ifndef RTP_EXEC_AUTOMATON_CACHE_H_
#define RTP_EXEC_AUTOMATON_CACHE_H_

// Thread-safe memoizing cache for compiled automata, shared across the
// batch paths: the independence matrix compiles each FD / update-class
// pattern automaton once instead of once per (fd, class) pair.
//
// Keying. Entries are keyed by a canonical string:
//
//   <alphabet-identity> "|" <mark-mode> "|" <canonical pattern DSL>
//
// built by PatternKey(). The pattern DSL serialization (PatternToDsl) is
// canonical — structurally identical patterns serialize identically — so
// equal patterns share one compiled automaton even when built through
// different code paths (parser, XPath compiler, path-FD compiler). The
// alphabet identity (address) is part of the key because compiled automata
// embed LabelIds, which are only meaningful relative to the interning
// Alphabet that produced them; entries never leak across alphabets.
//
// Invalidation. Patterns and regexes are immutable once built, so entries
// never go stale; the only invalidation is Clear() (tests, or releasing
// memory after a batch). Values are handed out as shared_ptr<const T>, so
// a Clear() concurrent with users is safe — existing holders keep their
// automata alive.
//
// Build-once contract. Under contention on one key, exactly one caller
// runs the builder; the others block on a shared_future and receive the
// same pointer. A builder that throws propagates the exception to every
// waiter and removes the entry, so a later call retries.
//
// Counters: exec.cache.hits / .misses / .builds / .build_failures,
// gauge exec.cache.entries.

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "automata/hedge_automaton.h"
#include "automata/pattern_compiler.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "pattern/tree_pattern.h"

namespace rtp::exec {

namespace internal {

// String-keyed find-or-build-once map; the engine behind the
// AutomatonCache.
template <typename T>
class MemoMap {
 public:
  std::shared_ptr<const T> GetOrBuild(const std::string& key,
                                      const std::function<T()>& build) {
    std::shared_future<std::shared_ptr<const T>> future;
    std::promise<std::shared_ptr<const T>> promise;
    bool builder = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        future = it->second;
      } else {
        future = promise.get_future().share();
        map_.emplace(key, future);
        builder = true;
      }
    }
    if (!builder) {
      RTP_OBS_COUNT("exec.cache.hits");
      return future.get();  // blocks while the builder runs; rethrows
    }
    RTP_OBS_COUNT("exec.cache.misses");
    try {
      RTP_OBS_COUNT("exec.cache.builds");
      promise.set_value(std::make_shared<const T>(build()));
    } catch (...) {
      RTP_OBS_COUNT("exec.cache.build_failures");
      RTP_LOG(WARN) << "automaton cache build failed; entry dropped for retry";
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(mu_);
      map_.erase(key);  // let a later call retry
      throw;
    }
    return future.get();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const T>>>
      map_;
};

}  // namespace internal

class AutomatonCache {
 public:
  // Process-wide instance shared by the CLI and benches. Library code
  // takes an explicit cache pointer, so tests can use private instances.
  static AutomatonCache& Global();

  // Canonical key for a compiled pattern automaton.
  static std::string PatternKey(const pattern::TreePattern& pattern,
                                const Alphabet& alphabet,
                                automata::MarkMode mode);

  // Find-or-compile of CompilePattern(pattern, mode). The builder runs at
  // most once per key across all threads.
  std::shared_ptr<const automata::HedgeAutomaton> GetPatternAutomaton(
      const pattern::TreePattern& pattern, const Alphabet& alphabet,
      automata::MarkMode mode);

  // Drops every entry (outstanding shared_ptrs stay valid).
  void Clear();

  size_t size() const { return automata_.size(); }

 private:
  internal::MemoMap<automata::HedgeAutomaton> automata_;
};

}  // namespace rtp::exec

#endif  // RTP_EXEC_AUTOMATON_CACHE_H_
