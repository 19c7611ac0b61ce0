#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/exposition.h"

namespace rtp::obs {

namespace internal {

constinit thread_local MetricDomain* tls_domain = nullptr;

}  // namespace internal

namespace {

int BucketOf(uint64_t sample) {
  if (sample == 0) return 0;
  return std::min(64 - std::countl_zero(sample), Histogram::kNumBuckets - 1);
}

// Inclusive lower bound of bucket i's range.
uint64_t BucketLow(int i) { return i == 0 ? 0 : uint64_t{1} << (i - 1); }

// Exclusive upper bound of bucket i's range (saturates for the top
// bucket, whose range is open-ended).
uint64_t BucketHigh(int i) {
  if (i == 0) return 1;
  if (i >= Histogram::kNumBuckets - 1) return ~uint64_t{0};
  return uint64_t{1} << i;
}

void AtomicMin(std::atomic<uint64_t>* slot, uint64_t v) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (v < cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* slot, uint64_t v) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (v > cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Shared quantile math over a plain bucket array: find the bucket holding
// the continuous rank q*(count-1) and interpolate linearly inside its
// value range, clamped to the observed [min, max].
double QuantileImpl(const uint64_t buckets[Histogram::kNumBuckets],
                    uint64_t count, uint64_t min, uint64_t max, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(count - 1);
  uint64_t seen = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) > rank) {
      if (i == 0) return 0.0;  // bucket 0 holds only zeros
      double lo = static_cast<double>(BucketLow(i));
      double hi = static_cast<double>(BucketHigh(i));
      double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      double value = lo + frac * (hi - lo);
      return std::clamp(value, static_cast<double>(min),
                        static_cast<double>(max));
    }
    seen += in_bucket;
  }
  return static_cast<double>(max);
}

}  // namespace

void HistogramDelta::Record(uint64_t sample) {
  buckets[BucketOf(sample)] += 1;
  count += 1;
  sum += sample;
  min = std::min(min, sample);
  max = std::max(max, sample);
}

void HistogramDelta::Merge(const HistogramDelta& other) {
  for (int i = 0; i < Histogram::kNumBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

double HistogramDelta::Quantile(double q) const {
  return QuantileImpl(buckets, count, ReportedMin(), max, q);
}

void Histogram::Record(uint64_t sample) {
  if (MetricDomain* d = internal::tls_domain) {
    internal::DomainHistogramRecord(d, this, sample);
    return;
  }
  RecordGlobal(sample);
}

void Histogram::RecordGlobal(uint64_t sample) {
  buckets_[BucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  AtomicMin(&min_, sample);
  AtomicMax(&max_, sample);
}

void Histogram::MergeGlobal(const HistogramDelta& delta) {
  if (delta.count == 0) return;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (delta.buckets[i] != 0) {
      buckets_[i].fetch_add(delta.buckets[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(delta.count, std::memory_order_relaxed);
  sum_.fetch_add(delta.sum, std::memory_order_relaxed);
  AtomicMin(&min_, delta.min);
  AtomicMax(&max_, delta.max);
}

uint64_t Histogram::min() const {
  uint64_t m = min_.load(std::memory_order_relaxed);
  return m == ~uint64_t{0} ? 0 : m;
}

double Histogram::mean() const {
  uint64_t c = count();
  return c == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(c);
}

double Histogram::Quantile(double q) const {
  // Cold path: copy the buckets once so the shared math runs over a
  // consistent plain array.
  uint64_t snapshot[kNumBuckets];
  for (int i = 0; i < kNumBuckets; ++i) snapshot[i] = bucket(i);
  return QuantileImpl(snapshot, count(), min(), max(), q);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// Registry internals. Metric objects are stored in deques so addresses
// survive growth; the name maps are guarded by a mutex taken only on
// registration, lookup, and dump — never on the recording hot path.
struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::map<std::string, Counter*> counter_names;
  std::map<std::string, Gauge*> gauge_names;
  std::map<std::string, Histogram*> histogram_names;
  // Id-indexed views (id == creation order within a kind). The name
  // pointers alias the map keys, which are stable for std::map.
  std::vector<Counter*> counters_by_id;
  std::vector<Histogram*> histograms_by_id;
  std::vector<const std::string*> counter_name_by_id;
  std::vector<const std::string*> histogram_name_by_id;

  // Aborts when `name` is already registered as a different kind.
  void CheckKind(const std::string& name, const char* kind,
                 bool is_this_kind) const {
    if (is_this_kind) return;
    bool clash = counter_names.count(name) || gauge_names.count(name) ||
                 histogram_names.count(name);
    if (clash) {
      std::fprintf(stderr, "obs: metric '%s' re-registered as %s\n",
                   name.c_str(), kind);
      std::abort();
    }
  }
};

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: metrics must outlive every static destructor that
  // might still record.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Impl* MetricsRegistry::impl() {
  static Impl* impl = new Impl();
  return impl;
}

const MetricsRegistry::Impl* MetricsRegistry::impl() const {
  return const_cast<MetricsRegistry*>(this)->impl();
}

Counter* MetricsRegistry::FindOrCreateCounter(const std::string& name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->counter_names.find(name);
  if (it != i->counter_names.end()) return it->second;
  i->CheckKind(name, "counter", false);
  i->counters.emplace_back();
  Counter* c = &i->counters.back();
  c->id_ = static_cast<uint32_t>(i->counters_by_id.size());
  auto inserted = i->counter_names.emplace(name, c).first;
  i->counters_by_id.push_back(c);
  i->counter_name_by_id.push_back(&inserted->first);
  return c;
}

Gauge* MetricsRegistry::FindOrCreateGauge(const std::string& name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->gauge_names.find(name);
  if (it != i->gauge_names.end()) return it->second;
  i->CheckKind(name, "gauge", false);
  i->gauges.emplace_back();
  Gauge* g = &i->gauges.back();
  i->gauge_names.emplace(name, g);
  return g;
}

Histogram* MetricsRegistry::FindOrCreateHistogram(const std::string& name) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->histogram_names.find(name);
  if (it != i->histogram_names.end()) return it->second;
  i->CheckKind(name, "histogram", false);
  i->histograms.emplace_back();
  Histogram* h = &i->histograms.back();
  h->id_ = static_cast<uint32_t>(i->histograms_by_id.size());
  auto inserted = i->histogram_names.emplace(name, h).first;
  i->histograms_by_id.push_back(h);
  i->histogram_name_by_id.push_back(&inserted->first);
  return h;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  auto it = i->counter_names.find(name);
  return it == i->counter_names.end() ? nullptr : it->second;
}

Counter* MetricsRegistry::CounterById(uint32_t id) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  return id < i->counters_by_id.size() ? i->counters_by_id[id] : nullptr;
}

Histogram* MetricsRegistry::HistogramById(uint32_t id) {
  Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  return id < i->histograms_by_id.size() ? i->histograms_by_id[id] : nullptr;
}

std::vector<std::string> MetricsRegistry::CounterNames() const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  std::vector<std::string> names;
  names.reserve(i->counter_name_by_id.size());
  for (const std::string* name : i->counter_name_by_id) {
    names.push_back(*name);
  }
  return names;
}

std::vector<std::string> MetricsRegistry::HistogramNames() const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  std::vector<std::string> names;
  names.reserve(i->histogram_name_by_id.size());
  for (const std::string* name : i->histogram_name_by_id) {
    names.push_back(*name);
  }
  return names;
}

void MetricsRegistry::VisitCounters(
    const std::function<void(const std::string&, const Counter&)>& fn) const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  for (const auto& [name, c] : i->counter_names) fn(name, *c);
}

void MetricsRegistry::VisitGauges(
    const std::function<void(const std::string&, const Gauge&)>& fn) const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  for (const auto& [name, g] : i->gauge_names) fn(name, *g);
}

void MetricsRegistry::VisitHistograms(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
  const Impl* i = impl();
  std::lock_guard<std::mutex> lock(i->mu);
  for (const auto& [name, h] : i->histogram_names) fn(name, *h);
}

std::string MetricsRegistry::DumpJson() const {
  return SnapshotToJson(TakeSnapshot());
}

std::string MetricsRegistry::DumpText() const {
  MetricsSnapshot snapshot = TakeSnapshot();
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    out << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << name << " = " << value << "\n";
  }
  for (const auto& [name, d] : snapshot.histograms) {
    out << name << ": count=" << d.count << " sum=" << d.sum
        << " min=" << d.ReportedMin() << " max=" << d.max
        << " mean=" << d.Mean() << " p50=" << d.ApproxQuantile(0.5)
        << " p99=" << d.ApproxQuantile(0.99) << "\n";
  }
  return out.str();
}

}  // namespace rtp::obs
