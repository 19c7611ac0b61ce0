#ifndef RTP_OBS_PROFILE_H_
#define RTP_OBS_PROFILE_H_

// Query profiles — EXPLAIN ANALYZE for rtp operations.
//
// A QueryProfile is the structured answer to "what did this one
// operation cost": a phase tree with wall times (from the trace spans
// that fired while the profile was being captured), the per-operation
// metric deltas (counters and histograms attributed by a MetricDomain),
// and the guard-budget consumption when the operation ran guarded.
//
// Capture is RAII:
//
//   obs::QueryProfile profile;
//   {
//     guard::ScopedGuard guard_scope(&ctx);     // optional, but first
//     obs::ProfileScope prof("fd.CheckFd", &profile);
//     ... the operation ...
//   }                                            // profile is now filled
//
// ProfileScope installs a MetricDomain, so everything the operation
// records — including its RTP_PHASE phases — is captured and, on
// destruction, flushed onward exactly as a bare MetricDomain would
// (registry totals stay exact). Construct the ProfileScope *inside* any
// ScopedGuard so its destructor still sees the guard context and can
// snapshot budget consumption and the trip status.
//
// A null profile pointer makes ProfileScope completely inert (no domain
// installed, hot path untouched); call sites can take an optional
// QueryProfile* and pass it straight through.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/domain.h"
#include "obs/metrics.h"

namespace rtp::obs {

// Guard-budget consumption snapshot (all zeros when the operation ran
// unguarded).
struct GuardReport {
  bool guarded = false;
  int64_t steps = 0;
  int64_t states = 0;
  int64_t memory_bytes = 0;
  // The configured limits (0 = unlimited), for "consumed X of Y".
  int64_t budget_deadline_ms = 0;
  int64_t budget_max_steps = 0;
  int64_t budget_max_states = 0;
  int64_t budget_max_memory_bytes = 0;
};

struct QueryProfile {
  std::string op;          // e.g. "fd.CheckFd", "pattern.EvaluateSelected"
  uint64_t wall_ns = 0;    // ProfileScope lifetime
  std::string status = "OK";  // guard::CurrentStatus().ToString() at close

  // Phase tree in preorder; parent == -1 marks root phases.
  std::vector<CapturedSpan> phases;

  // Metric deltas attributed to this operation, sorted by name.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramDelta>> histograms;

  GuardReport guard;

  // Delta for one counter (0 when the operation never touched it).
  uint64_t CounterDelta(const std::string& name) const;
  // Sum of root-phase durations; the profile's internal-consistency
  // check is RootPhaseTotalNs() <= wall_ns, close to it when the phases
  // cover the operation.
  uint64_t RootPhaseTotalNs() const;

  // One JSON object (single line, no trailing newline).
  std::string ToJson() const;
  // Indented human-readable rendering (the `rtp_cli explain` output).
  std::string ToText() const;
};

// Captures a QueryProfile for its scope via an embedded MetricDomain.
// Inert when `out` is nullptr.
class ProfileScope {
 public:
  ProfileScope(std::string op, QueryProfile* out);
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  QueryProfile* out_;
  // Manually-constructed storage so the domain only exists when capturing.
  alignas(MetricDomain) unsigned char domain_storage_[sizeof(MetricDomain)];
  MetricDomain* domain_ = nullptr;
};

// Renders a batch of profiles as a JSON array (one profile per element,
// pretty-printed one object per line).
std::string ProfilesToJson(const std::vector<QueryProfile>& profiles);

}  // namespace rtp::obs

#endif  // RTP_OBS_PROFILE_H_
