#ifndef RTP_OBS_DOMAIN_H_
#define RTP_OBS_DOMAIN_H_

// MetricDomain — request-scoped metric capture.
//
// A MetricDomain is a thread-local overlay over the global metric
// registry: while installed, every Counter::Add / Histogram::Record on
// the installing thread lands in the domain's plain (single-writer)
// cells instead of the global atomics. On destruction the domain
// flushes: its deltas are re-added through the normal dispatch path, so
// they cascade into the parent domain when nested, or into the global
// cells at the outermost level. Nothing is ever lost — a domain only
// *attributes* work, the registry totals stay exact.
//
// Threading model: a domain is single-threaded. It captures only on the
// thread that installed it. For an exec::ParallelFor batch, install one
// domain per work item inside the ParallelFor lambda — exactly like
// guard::GuardContext — and the per-item deltas sum to the registry
// delta for the batch.
//
// Domains also record phases: RTP_PHASE (obs/trace.h) reports every
// phase to the innermost installed domain, which stores them in preorder
// with parent links. ProfileScope (obs/profile.h) turns the captured
// spans + deltas into a QueryProfile.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rtp::obs {

// One completed trace span captured by a domain, preorder-indexed.
struct CapturedSpan {
  std::string name;
  uint64_t start_ns = 0;  // relative to domain construction
  uint64_t dur_ns = 0;
  int32_t parent = -1;  // index into the span vector; -1 for roots
  int32_t depth = 0;
};

class MetricDomain {
 public:
  // Installs the domain on the current thread (saving any currently
  // installed domain as the parent).
  MetricDomain();
  // Uninstalls and flushes deltas to the parent domain / global cells.
  ~MetricDomain();

  MetricDomain(const MetricDomain&) = delete;
  MetricDomain& operator=(const MetricDomain&) = delete;

  // The innermost domain installed on the current thread, or nullptr.
  static MetricDomain* Current();

  // --- capture (called via internal::DomainCounterAdd / ...Record) ---
  void CounterAdd(uint32_t id, uint64_t n);
  void HistogramRecord(uint32_t id, uint64_t sample);

  // --- span capture (called by obs::Phase) ---
  // Opens a span that started at `now_ns` (guard::MonotonicNowNs);
  // returns its index for the matching CloseSpan.
  int32_t OpenSpan(const char* name, uint64_t now_ns);
  void CloseSpan(int32_t index, uint64_t now_ns);

  // --- inspection (typically after Detach or from ProfileScope) ---
  // Nonzero counter deltas as (name, delta), sorted by name.
  std::vector<std::pair<std::string, uint64_t>> CounterDeltas() const;
  // Nonempty histogram deltas as (name, delta), sorted by name.
  std::vector<std::pair<std::string, HistogramDelta>> HistogramDeltas() const;
  // Delta for one counter by name (0 when not captured).
  uint64_t CounterDelta(const std::string& name) const;
  // Captured spans, preorder.
  const std::vector<CapturedSpan>& spans() const { return spans_; }
  // Nanoseconds since the domain was constructed.
  uint64_t ElapsedNs() const;

 private:
  friend void internal::DomainCounterAdd(MetricDomain*, Counter*, uint64_t);
  friend void internal::DomainHistogramRecord(MetricDomain*, Histogram*,
                                              uint64_t);

  MetricDomain* parent_ = nullptr;
  uint64_t start_ns_ = 0;  // monotonic clock at construction
  // Plain cells indexed by metric id; grown on demand. Single-writer, so
  // no atomics.
  std::vector<uint64_t> counter_cells_;
  std::vector<HistogramDelta> histogram_cells_;
  std::vector<CapturedSpan> spans_;
  std::vector<int32_t> open_stack_;  // indices of currently open spans
};

}  // namespace rtp::obs

#endif  // RTP_OBS_DOMAIN_H_
