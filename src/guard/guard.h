#ifndef RTP_GUARD_GUARD_H_
#define RTP_GUARD_GUARD_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

// Cooperative execution budgets and cancellation.
//
// A GuardContext carries a resource budget (wall-clock deadline, automaton
// state quota, step quota, approximate memory quota) and an optional
// CancelToken. It is installed into a thread-local slot with ScopedGuard;
// hot loops poll it through the free functions below, which are a single
// TLS load plus a branch when no guard is installed.
//
// The contract is *cooperative and sticky*:
//   - once any limit trips, the context's status is set exactly once and
//     every later poll fails fast;
//   - loops respond to a trip by breaking early, leaving their partial
//     value structurally valid but semantically meaningless;
//   - every Status-returning API boundary that ran under a guard consults
//     guard::CurrentStatus() before returning, so a poisoned partial
//     result is never observed by a caller.
//
// A single GuardContext may be shared by several threads (the counters are
// relaxed atomics), but the usual pattern for batch APIs is one context
// per work item so that one pathological item cannot starve its siblings.
namespace rtp::guard {

// All limits use 0 to mean "unlimited".
struct ExecutionBudget {
  int64_t deadline_ms = 0;          // wall-clock, from GuardContext creation
  int64_t max_automaton_states = 0; // states interned across all automata
  int64_t max_steps = 0;            // loop iterations (polls)
  int64_t max_memory_bytes = 0;     // approximate accounted allocations

  bool Limited() const {
    return deadline_ms > 0 || max_automaton_states > 0 || max_steps > 0 ||
           max_memory_bytes > 0;
  }
};

// A cheap cancellation flag, settable from any thread. A single token is
// typically shared by every work item of one logical request.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> cancelled_{false};
};

class GuardContext {
 public:
  // `start_ns` anchors the wall-clock deadline: 0 (the default) means "now",
  // a positive value is a MonotonicNowNs() timestamp taken earlier. A
  // serving layer passes the request's *arrival* time so the deadline
  // covers the wait for an execution slot as well as execution itself
  // (an arrival-to-completion deadline).
  explicit GuardContext(const ExecutionBudget& budget,
                        CancelToken* cancel = nullptr, int64_t start_ns = 0);

  GuardContext(const GuardContext&) = delete;
  GuardContext& operator=(const GuardContext&) = delete;

  // False once any limit has tripped or the token was cancelled.
  bool ok() const { return !tripped_.load(std::memory_order_acquire); }

  // OK while running; the sticky trip status afterwards.
  Status status() const;

  // One bounded-work "step": counts toward max_steps, checks the cancel
  // token, and (amortized, every kDeadlineCheckInterval steps) the
  // deadline.
  void Poll();

  // Resource accounting; both trip their quota immediately when exceeded.
  void AddStates(int64_t n);
  void AddMemory(int64_t bytes);

  // Forces a trip from outside the budget machinery (failpoints, direct
  // cancellation). No-op if already tripped.
  void ForceTrip(StatusCode code, std::string message);

  const ExecutionBudget& budget() const { return budget_; }

  // Consumption so far (tests calibrate budgets from these; approximate
  // under concurrency, exact for single-threaded runs).
  int64_t steps() const { return steps_.load(std::memory_order_relaxed); }
  int64_t states() const { return states_.load(std::memory_order_relaxed); }
  int64_t memory() const { return memory_.load(std::memory_order_relaxed); }

 private:
  static constexpr int64_t kDeadlineCheckInterval = 256;

  void Trip(StatusCode code, std::string message);
  void CheckDeadline();

  const ExecutionBudget budget_;
  CancelToken* const cancel_;
  const int64_t start_ns_;

  std::atomic<int64_t> steps_{0};
  std::atomic<int64_t> states_{0};
  std::atomic<int64_t> memory_{0};

  std::atomic<bool> tripped_{false};
  // Guards the one-time write of trip_code_/trip_message_.
  std::atomic<bool> trip_claimed_{false};
  StatusCode trip_code_ = StatusCode::kOk;
  std::string trip_message_;
};

// The guard installed on the current thread, or nullptr when unguarded.
GuardContext* Current();

// The monotonic clock GuardContext deadlines are measured on, in
// nanoseconds. Callers that want a deadline to start before the context
// exists (e.g. at request arrival) capture this and pass it as `start_ns`.
int64_t MonotonicNowNs();

// Installs `ctx` into the thread-local slot for its scope and restores the
// previous guard (usually nullptr) on destruction.
class ScopedGuard {
 public:
  explicit ScopedGuard(GuardContext* ctx);
  ~ScopedGuard();

  ScopedGuard(const ScopedGuard&) = delete;
  ScopedGuard& operator=(const ScopedGuard&) = delete;

 private:
  GuardContext* previous_;
};

// Owns a GuardContext + ScopedGuard only when the budget is actually
// limited or a cancel token is supplied; otherwise it is a no-op. This is
// the standard way for an API boundary to honor per-call options without
// paying anything on the unlimited path.
class OptionalGuardScope {
 public:
  OptionalGuardScope(const ExecutionBudget& budget, CancelToken* cancel);
  ~OptionalGuardScope();

  OptionalGuardScope(const OptionalGuardScope&) = delete;
  OptionalGuardScope& operator=(const OptionalGuardScope&) = delete;

  bool engaged() const { return ctx_ != nullptr; }

 private:
  GuardContext* ctx_ = nullptr;
  GuardContext* previous_ = nullptr;
};

// True when a guard is installed on this thread.
inline bool Active();

// Polls the current guard (if any); returns false once it has tripped.
// Hot loops call this once per bounded unit of work and break on false.
inline bool KeepGoing();

// True while no guard has tripped, without counting a step.
inline bool Ok();

// Accounting shims; no-ops when unguarded.
inline void AccountStates(int64_t n);
inline void AccountMemory(int64_t bytes);

// OK when unguarded or not tripped; the sticky trip status otherwise.
// Every Status-returning boundary that ran guarded loops calls this.
Status CurrentStatus();

// True for the three statuses a budget/cancellation trip can produce.
bool IsResourceStatus(const Status& status);
bool IsResourceCode(StatusCode code);

namespace internal {
// constinit: the slot needs no dynamic initialization, so other
// translation units read it directly rather than through gcc's TLS
// wrapper, whose weak init-function check UBSan reports as a load of a
// null pointer.
extern constinit thread_local GuardContext* tls_guard;
}  // namespace internal

inline bool Active() { return internal::tls_guard != nullptr; }

inline bool KeepGoing() {
  GuardContext* g = internal::tls_guard;
  if (g == nullptr) return true;
  g->Poll();
  return g->ok();
}

inline bool Ok() {
  GuardContext* g = internal::tls_guard;
  return g == nullptr || g->ok();
}

inline void AccountStates(int64_t n) {
  GuardContext* g = internal::tls_guard;
  if (g != nullptr) g->AddStates(n);
}

inline void AccountMemory(int64_t bytes) {
  GuardContext* g = internal::tls_guard;
  if (g != nullptr) g->AddMemory(bytes);
}

}  // namespace rtp::guard

#endif  // RTP_GUARD_GUARD_H_
