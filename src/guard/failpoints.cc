#include "guard/failpoints.h"

#include <map>
#include <mutex>
#include <string>

#include "guard/guard.h"
#include "obs/metrics.h"

namespace rtp::guard {

namespace internal {
std::atomic<int> armed_failpoints{0};
}  // namespace internal

namespace {

struct SiteState {
  FailAction action = FailAction::kNone;
  int64_t remaining = 0;  // free hits before the armed action fires
  int64_t hits = 0;
};

std::mutex& SitesMutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}

std::map<std::string, SiteState, std::less<>>& Sites() {
  static auto* sites = new std::map<std::string, SiteState, std::less<>>;
  return *sites;
}

// Publishes the number of armed sites to RTP_FAILPOINT. Call with
// SitesMutex() held, after every change to a site's action.
void PublishArmedCount() {
  int armed = 0;
  for (const auto& [name, state] : Sites()) {
    if (state.action != FailAction::kNone) ++armed;
  }
  internal::armed_failpoints.store(armed, std::memory_order_relaxed);
}

void Fire(FailAction action, std::string_view site) {
  GuardContext* g = Current();
  if (g == nullptr) return;  // Failpoints act on the installed guard only.
  std::string where = "failpoint " + std::string(site);
  switch (action) {
    case FailAction::kDeadline:
      g->ForceTrip(StatusCode::kDeadlineExceeded, where + ": injected deadline");
      break;
    case FailAction::kStates:
      g->ForceTrip(StatusCode::kResourceExhausted,
                   where + ": injected state-quota trip");
      break;
    case FailAction::kMemory:
      g->ForceTrip(StatusCode::kResourceExhausted,
                   where + ": injected memory-budget trip");
      break;
    case FailAction::kAllocFail:
      g->ForceTrip(StatusCode::kResourceExhausted,
                   where + ": injected allocation failure");
      break;
    case FailAction::kCancel:
      g->ForceTrip(StatusCode::kCancelled, where + ": injected cancellation");
      break;
    case FailAction::kNone:
      break;
  }
  RTP_OBS_COUNT("guard.failpoints.fired");
}

}  // namespace

void ArmFailpoint(std::string_view site, FailAction action,
                  int64_t after_hits) {
  std::lock_guard<std::mutex> lock(SitesMutex());
  SiteState& state = Sites()[std::string(site)];
  state.action = action;
  state.remaining = after_hits;
  PublishArmedCount();
}

void DisarmAllFailpoints() {
  std::lock_guard<std::mutex> lock(SitesMutex());
  Sites().clear();
  PublishArmedCount();
}

int64_t FailpointHits(std::string_view site) {
  std::lock_guard<std::mutex> lock(SitesMutex());
  auto it = Sites().find(site);
  return it == Sites().end() ? 0 : it->second.hits;
}

namespace internal {

void FailpointHit(std::string_view site) {
  FailAction to_fire = FailAction::kNone;
  {
    std::lock_guard<std::mutex> lock(SitesMutex());
    SiteState& state = Sites()[std::string(site)];
    ++state.hits;
    if (state.action != FailAction::kNone) {
      if (state.remaining > 0) {
        --state.remaining;
      } else {
        to_fire = state.action;
        state.action = FailAction::kNone;  // firing disarms
        PublishArmedCount();
      }
    }
  }
  if (to_fire != FailAction::kNone) Fire(to_fire, site);
}

}  // namespace internal

}  // namespace rtp::guard
