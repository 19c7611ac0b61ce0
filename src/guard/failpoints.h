#ifndef RTP_GUARD_FAILPOINTS_H_
#define RTP_GUARD_FAILPOINTS_H_

#include <atomic>
#include <cstdint>
#include <string_view>

// Fault injection for robustness tests.
//
// Pipeline code marks named sites with RTP_FAILPOINT("site.name"). The
// macro is one relaxed load of the number of armed sites; it calls out of
// line only while some site is armed. A test arms a site with an action;
// the next time execution reaches the site (optionally after a number of
// free hits) the action fires against the guard installed on the current
// thread — tripping its deadline, state quota, memory budget, or
// cancellation, or simulating an allocation failure. While any site is
// armed, every pass through every site bumps that site's hit counter.
//
// The site catalogue lives in docs/ROBUSTNESS.md. Arming is process-global
// and mutex-protected; tests disarm everything in their teardown.
namespace rtp::guard {

enum class FailAction {
  kNone = 0,
  kDeadline,   // trip the current guard as DEADLINE_EXCEEDED
  kStates,     // trip the current guard as RESOURCE_EXHAUSTED (state quota)
  kMemory,     // trip the current guard as RESOURCE_EXHAUSTED (memory)
  kCancel,     // trip the current guard as CANCELLED
  kAllocFail,  // trip the current guard as RESOURCE_EXHAUSTED (allocation)
};

// Arms `site` to fire `action` after `after_hits` further passes through
// it (0 = fire on the very next hit). Re-arming replaces the previous
// action. Firing disarms the site.
void ArmFailpoint(std::string_view site, FailAction action,
                  int64_t after_hits = 0);

// Disarms every site and resets all hit counters.
void DisarmAllFailpoints();

// Number of times execution passed `site` while some site was armed,
// since the last DisarmAllFailpoints().
int64_t FailpointHits(std::string_view site);

namespace internal {
// Number of armed sites, read by every RTP_FAILPOINT.
extern std::atomic<int> armed_failpoints;
// Out-of-line slow path behind RTP_FAILPOINT. Cold, so the compiler keeps
// the call off the instrumented function's hot path.
[[gnu::cold]] void FailpointHit(std::string_view site);
}  // namespace internal

}  // namespace rtp::guard

#define RTP_FAILPOINT(site)                                      \
  do {                                                           \
    if (::rtp::guard::internal::armed_failpoints.load(           \
            std::memory_order_relaxed) > 0) [[unlikely]] {       \
      ::rtp::guard::internal::FailpointHit(site);                \
    }                                                            \
  } while (false)

#endif  // RTP_GUARD_FAILPOINTS_H_
