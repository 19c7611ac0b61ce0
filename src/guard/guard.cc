#include "guard/guard.h"

#include <chrono>

#include "obs/log.h"
#include "obs/metrics.h"

namespace rtp::guard {

namespace internal {
constinit thread_local GuardContext* tls_guard = nullptr;
}  // namespace internal

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// One macro call site per code: RTP_OBS_COUNT caches its counter pointer
// in a call-site static, so routing all codes through one call site would
// bind every trip to whichever counter the first trip resolved.
void CountTrip(StatusCode code) {
  switch (code) {
    case StatusCode::kDeadlineExceeded:
      RTP_OBS_COUNT("guard.trips.deadline");
      break;
    case StatusCode::kResourceExhausted:
      RTP_OBS_COUNT("guard.trips.resource");
      break;
    case StatusCode::kCancelled:
      RTP_OBS_COUNT("guard.trips.cancelled");
      break;
    default:
      RTP_OBS_COUNT("guard.trips.other");
      break;
  }
}

}  // namespace

GuardContext::GuardContext(const ExecutionBudget& budget, CancelToken* cancel,
                           int64_t start_ns)
    : budget_(budget),
      cancel_(cancel),
      start_ns_(start_ns > 0 ? start_ns : MonotonicNowNs()) {
  RTP_OBS_COUNT("guard.contexts");
}

Status GuardContext::status() const {
  if (!tripped_.load(std::memory_order_acquire)) return Status::OK();
  // trip_claimed_ is the release fence for trip_code_/trip_message_; by the
  // time tripped_ reads true those fields are already published.
  return Status(trip_code_, trip_message_);
}

void GuardContext::Trip(StatusCode code, std::string message) {
  bool expected = false;
  if (!trip_claimed_.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
    return;  // Another thread already tripped; first trip wins.
  }
  trip_code_ = code;
  trip_message_ = std::move(message);
  tripped_.store(true, std::memory_order_release);
  CountTrip(code);
  RTP_LOG(DEBUG) << "guard tripped: " << StatusCodeName(code) << ": "
                 << trip_message_;
}

void GuardContext::ForceTrip(StatusCode code, std::string message) {
  Trip(code, std::move(message));
}

void GuardContext::CheckDeadline() {
  if (budget_.deadline_ms <= 0) return;
  int64_t elapsed_ms = (MonotonicNowNs() - start_ns_) / 1'000'000;
  if (elapsed_ms >= budget_.deadline_ms) {
    Trip(StatusCode::kDeadlineExceeded,
         "deadline of " + std::to_string(budget_.deadline_ms) +
             "ms exceeded after " + std::to_string(elapsed_ms) + "ms");
  }
}

void GuardContext::Poll() {
  if (tripped_.load(std::memory_order_relaxed)) return;
  if (cancel_ != nullptr && cancel_->cancelled()) {
    Trip(StatusCode::kCancelled, "cancelled by caller");
    return;
  }
  int64_t step = steps_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (budget_.max_steps > 0 && step > budget_.max_steps) {
    Trip(StatusCode::kResourceExhausted,
         "step quota of " + std::to_string(budget_.max_steps) + " exhausted");
    return;
  }
  // The deadline involves a clock read, so it is checked amortized; a
  // cancel or quota trip is still noticed on every poll.
  if (step % kDeadlineCheckInterval == 0) CheckDeadline();
}

void GuardContext::AddStates(int64_t n) {
  if (budget_.max_automaton_states <= 0) return;
  int64_t total = states_.fetch_add(n, std::memory_order_relaxed) + n;
  if (total > budget_.max_automaton_states) {
    Trip(StatusCode::kResourceExhausted,
         "automaton state quota of " +
             std::to_string(budget_.max_automaton_states) +
             " exhausted (reached " + std::to_string(total) + ")");
  }
}

void GuardContext::AddMemory(int64_t bytes) {
  if (budget_.max_memory_bytes <= 0) return;
  int64_t total = memory_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (total > budget_.max_memory_bytes) {
    Trip(StatusCode::kResourceExhausted,
         "memory budget of " + std::to_string(budget_.max_memory_bytes) +
             " bytes exhausted (accounted " + std::to_string(total) + ")");
  }
}

GuardContext* Current() { return internal::tls_guard; }

ScopedGuard::ScopedGuard(GuardContext* ctx) : previous_(internal::tls_guard) {
  internal::tls_guard = ctx;
}

ScopedGuard::~ScopedGuard() { internal::tls_guard = previous_; }

OptionalGuardScope::OptionalGuardScope(const ExecutionBudget& budget,
                                       CancelToken* cancel) {
  if (!budget.Limited() && cancel == nullptr) return;
  ctx_ = new GuardContext(budget, cancel);
  previous_ = internal::tls_guard;
  internal::tls_guard = ctx_;
}

OptionalGuardScope::~OptionalGuardScope() {
  if (ctx_ == nullptr) return;
  internal::tls_guard = previous_;
  delete ctx_;
}

Status CurrentStatus() {
  GuardContext* g = internal::tls_guard;
  if (g == nullptr) return Status::OK();
  return g->status();
}

bool IsResourceCode(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kCancelled;
}

bool IsResourceStatus(const Status& status) {
  return IsResourceCode(status.code());
}

}  // namespace rtp::guard
