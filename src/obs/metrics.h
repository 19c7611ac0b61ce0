#ifndef RTP_OBS_METRICS_H_
#define RTP_OBS_METRICS_H_

// rtp::obs — lightweight metrics for the pattern / automata / FD /
// independence pipeline, with optional request-scoped attribution.
//
// Design goals, in order:
//   1. The hot path of a metric is a single relaxed atomic add
//      (no locks, no allocation) plus one thread-local load that decides
//      whether a request-scoped MetricDomain (obs/domain.h) is capturing
//      on this thread. With a domain installed, the add lands in the
//      domain's plain (single-writer) cell instead — still one add.
//   2. Registration is thread-safe and idempotent: the first caller of
//      Counter("x") creates the metric, later callers get the same object.
//      Metric objects live for the process lifetime (deque storage, never
//      reallocated), so cached pointers stay valid forever.
//   3. Everything is observable as structured data: DumpJson() for
//      machines, DumpText() for humans, and obs/exposition.h for
//      Prometheus text format and snapshot/delta dumps.
//
// Call-site idiom (the RTP_OBS_* macros below expand to exactly this):
//
//   static obs::Counter* c = obs::Registry().FindOrCreateCounter("fd.hits");
//   c->Add(1);
//
// Timed scopes use RTP_PHASE (obs/trace.h), which records a histogram
// through the same idiom.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rtp::obs {

class Counter;
class Gauge;
class Histogram;
class MetricDomain;
struct HistogramDelta;

namespace internal {

// The innermost MetricDomain capturing on this thread, or nullptr (the
// common case: everything records straight into the global cells).
// constinit for the same reason as guard::internal::tls_guard.
extern constinit thread_local MetricDomain* tls_domain;

// Out-of-line capture paths (domain.cc). They fall back to the global
// cell for metrics that were never registered (id() == kUnregisteredId).
void DomainCounterAdd(MetricDomain* domain, Counter* counter, uint64_t n);
void DomainHistogramRecord(MetricDomain* domain, Histogram* histogram,
                           uint64_t sample);

}  // namespace internal

// Metrics created outside the registry (rare; tests) carry this id and
// bypass domain capture.
inline constexpr uint32_t kUnregisteredId = ~uint32_t{0};

// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (MetricDomain* d = internal::tls_domain) {
      internal::DomainCounterAdd(d, this, n);
      return;
    }
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  // Records into the global cell regardless of any installed domain (the
  // domain flush path; not for call sites).
  void AddGlobal(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  uint32_t id() const { return id_; }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> value_{0};
  uint32_t id_ = kUnregisteredId;
};

// Last-written instantaneous value (sizes, levels). Gauges describe
// process state, not per-request work, so they are never captured by a
// MetricDomain.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log2-bucketed distribution of nonnegative samples (latencies in ns,
// automaton sizes, ...). Bucket i counts samples in [2^(i-1), 2^i), with
// bucket 0 counting zeros; the top bucket is open-ended. Recording is a
// relaxed add into one bucket plus relaxed adds to count/sum and two
// monotonic min/max CAS loops that almost always succeed immediately.
class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  // Domain-dispatching: lands in the installed MetricDomain, if any.
  void Record(uint64_t sample);
  // Always the global cells (domain flush / merge path).
  void RecordGlobal(uint64_t sample);
  void MergeGlobal(const HistogramDelta& delta);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const;  // 0 when empty
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double mean() const;
  // Quantile (q in [0,1]) with linear interpolation inside the containing
  // log2 bucket, clamped to the observed [min, max] range.
  double Quantile(double q) const;
  // Rounded Quantile (the JSON/text dump representation).
  uint64_t ApproxQuantile(double q) const {
    return static_cast<uint64_t>(Quantile(q) + 0.5);
  }
  void Reset();
  uint32_t id() const { return id_; }

 private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
  uint32_t id_ = kUnregisteredId;
};

// A plain (non-atomic) histogram state: the per-domain capture cell and
// the unit of snapshot/delta arithmetic (obs/exposition.h).
struct HistogramDelta {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = ~uint64_t{0};  // reported as 0 when count == 0
  uint64_t max = 0;
  uint64_t buckets[Histogram::kNumBuckets] = {};

  void Record(uint64_t sample);
  void Merge(const HistogramDelta& other);
  uint64_t ReportedMin() const { return count == 0 ? 0 : min; }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  double Quantile(double q) const;
  uint64_t ApproxQuantile(double q) const {
    return static_cast<uint64_t>(Quantile(q) + 0.5);
  }
};

// The version of the DumpJson()/SnapshotToJson() document shape, emitted
// as a top-level "schema_version" field. Bump when the shape changes.
//   v1: {"counters":...,"gauges":...,"histograms":...}
//   v2: adds schema_version; p50/p99 interpolate within buckets.
inline constexpr int kDumpSchemaVersion = 2;

// Process-wide registry of named metrics. Creation takes a mutex; lookups
// by the call-site caching idiom happen once per call site.
class MetricsRegistry {
 public:
  // The process-wide instance.
  static MetricsRegistry& Global();

  // Find-or-create. The returned pointer is valid for the process
  // lifetime. A name maps to exactly one kind; requesting an existing
  // name as a different kind aborts (programming error).
  Counter* FindOrCreateCounter(const std::string& name);
  Gauge* FindOrCreateGauge(const std::string& name);
  Histogram* FindOrCreateHistogram(const std::string& name);

  // Nullptr when absent (does not create).
  const Counter* FindCounter(const std::string& name) const;

  // Id-indexed access for MetricDomain capture/flush. Ids are dense per
  // kind, assigned in registration order; nullptr past the current count.
  Counter* CounterById(uint32_t id);
  Histogram* HistogramById(uint32_t id);
  // Names indexed by id (names[i] is the metric with id i).
  std::vector<std::string> CounterNames() const;
  std::vector<std::string> HistogramNames() const;

  // Visits every registered metric of one kind, sorted by name, under the
  // registry mutex. The visitor must not call back into the registry.
  void VisitCounters(
      const std::function<void(const std::string&, const Counter&)>& fn) const;
  void VisitGauges(
      const std::function<void(const std::string&, const Gauge&)>& fn) const;
  void VisitHistograms(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const;

  // Structured exports; metrics appear sorted by name. JSON shape:
  //   {"schema_version":2,
  //    "counters":{"a.b":1,...},
  //    "gauges":{"g":2,...},
  //    "histograms":{"h":{"count":..,"sum":..,"min":..,"max":..,
  //                       "mean":..,"p50":..,"p99":..},...}}
  std::string DumpJson() const;
  std::string DumpText() const;

 private:
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

// Shorthand for MetricsRegistry::Global().
inline MetricsRegistry& Registry() { return MetricsRegistry::Global(); }

// Process-wide dumps of every registered metric.
inline std::string DumpJson() { return Registry().DumpJson(); }
inline std::string DumpText() { return Registry().DumpText(); }

}  // namespace rtp::obs

// Call-site macros. Each caches the metric pointer in a function-local
// static, so steady state is one relaxed atomic add per event.
#define RTP_OBS_COUNT(name) RTP_OBS_COUNT_N(name, 1)

#define RTP_OBS_COUNT_N(name, n)                                      \
  do {                                                                \
    static ::rtp::obs::Counter* rtp_obs_counter_ =                    \
        ::rtp::obs::Registry().FindOrCreateCounter(name);             \
    rtp_obs_counter_->Add(static_cast<uint64_t>(n));                  \
  } while (false)

#define RTP_OBS_GAUGE_SET(name, v)                                    \
  do {                                                                \
    static ::rtp::obs::Gauge* rtp_obs_gauge_ =                        \
        ::rtp::obs::Registry().FindOrCreateGauge(name);               \
    rtp_obs_gauge_->Set(static_cast<int64_t>(v));                     \
  } while (false)

#define RTP_OBS_HISTOGRAM_RECORD(name, sample)                        \
  do {                                                                \
    static ::rtp::obs::Histogram* rtp_obs_histogram_ =                \
        ::rtp::obs::Registry().FindOrCreateHistogram(name);           \
    rtp_obs_histogram_->Record(static_cast<uint64_t>(sample));        \
  } while (false)

#endif  // RTP_OBS_METRICS_H_
