#include "exec/automaton_cache.h"

#include <cstdio>

#include "pattern/pattern_writer.h"

namespace rtp::exec {

AutomatonCache& AutomatonCache::Global() {
  static AutomatonCache* cache = new AutomatonCache();
  return *cache;
}

std::string AutomatonCache::PatternKey(const pattern::TreePattern& pattern,
                                       const Alphabet& alphabet,
                                       automata::MarkMode mode) {
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "%p|%d|",
                static_cast<const void*>(&alphabet), static_cast<int>(mode));
  return prefix + pattern::PatternToDsl(pattern, alphabet);
}

std::shared_ptr<const automata::HedgeAutomaton>
AutomatonCache::GetPatternAutomaton(const pattern::TreePattern& pattern,
                                    const Alphabet& alphabet,
                                    automata::MarkMode mode) {
  std::shared_ptr<const automata::HedgeAutomaton> result =
      automata_.GetOrBuild(PatternKey(pattern, alphabet, mode), [&] {
        return automata::CompilePattern(pattern, mode);
      });
  RTP_OBS_GAUGE_SET("exec.cache.entries", size());
  return result;
}

void AutomatonCache::Clear() {
  automata_.Clear();
  RTP_OBS_GAUGE_SET("exec.cache.entries", 0);
}

}  // namespace rtp::exec
