#include "obs/exposition.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/json_string.h"

namespace rtp::obs {

namespace {

// A Prometheus-safe metric name: "rtp_" + name with every character
// outside [a-zA-Z0-9_:] replaced by '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = "rtp_";
  out.reserve(name.size() + 4);
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// Inclusive upper bound of log2 bucket i over integer samples: bucket i
// holds [2^(i-1), 2^i), so every sample in it is <= 2^i - 1. Bucket 0
// holds only zeros.
uint64_t BucketLe(int i) {
  if (i == 0) return 0;
  if (i >= Histogram::kNumBuckets - 1) return ~uint64_t{0};
  return (uint64_t{1} << i) - 1;
}

}  // namespace

MetricsSnapshot TakeSnapshot() {
  MetricsSnapshot snapshot;
  const MetricsRegistry& registry = Registry();
  registry.VisitCounters(
      [&snapshot](const std::string& name, const Counter& c) {
        snapshot.counters.emplace_back(name, c.value());
      });
  registry.VisitGauges([&snapshot](const std::string& name, const Gauge& g) {
    snapshot.gauges.emplace_back(name, g.value());
  });
  registry.VisitHistograms(
      [&snapshot](const std::string& name, const Histogram& h) {
        HistogramDelta d;
        for (int i = 0; i < Histogram::kNumBuckets; ++i) {
          d.buckets[i] = h.bucket(i);
        }
        d.count = h.count();
        d.sum = h.sum();
        d.min = h.count() == 0 ? ~uint64_t{0} : h.min();
        d.max = h.max();
        snapshot.histograms.emplace_back(name, d);
      });
  return snapshot;
}

MetricsSnapshot SnapshotDelta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  std::map<std::string, uint64_t> counters_before(before.counters.begin(),
                                                  before.counters.end());
  std::map<std::string, HistogramDelta> histograms_before;
  for (const auto& [name, d] : before.histograms) histograms_before[name] = d;

  MetricsSnapshot delta;
  for (const auto& [name, value] : after.counters) {
    auto it = counters_before.find(name);
    uint64_t prev = it == counters_before.end() ? 0 : it->second;
    delta.counters.emplace_back(name, value >= prev ? value - prev : 0);
  }
  delta.gauges = after.gauges;  // instantaneous
  for (const auto& [name, d] : after.histograms) {
    HistogramDelta out = d;  // keeps after's min/max (instantaneous)
    auto it = histograms_before.find(name);
    if (it != histograms_before.end()) {
      const HistogramDelta& prev = it->second;
      out.count = d.count >= prev.count ? d.count - prev.count : 0;
      out.sum = d.sum >= prev.sum ? d.sum - prev.sum : 0;
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        out.buckets[i] =
            d.buckets[i] >= prev.buckets[i] ? d.buckets[i] - prev.buckets[i]
                                            : 0;
      }
    }
    delta.histograms.emplace_back(name, out);
  }
  return delta;
}

std::string SnapshotToJson(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"schema_version\":" << kDumpSchemaVersion << ",\"counters\":{";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    if (i != 0) out << ",";
    out << JsonString(snapshot.counters[i].first) << ":"
        << snapshot.counters[i].second;
  }
  out << "},\"gauges\":{";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    if (i != 0) out << ",";
    out << JsonString(snapshot.gauges[i].first) << ":"
        << snapshot.gauges[i].second;
  }
  out << "},\"histograms\":{";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramDelta& d = snapshot.histograms[i].second;
    if (i != 0) out << ",";
    out << JsonString(snapshot.histograms[i].first)
        << ":{\"count\":" << d.count << ",\"sum\":" << d.sum
        << ",\"min\":" << d.ReportedMin() << ",\"max\":" << d.max
        << ",\"mean\":" << d.Mean()
        << ",\"p50\":" << d.ApproxQuantile(0.5)
        << ",\"p99\":" << d.ApproxQuantile(0.99)
        << "}";
  }
  out << "}}";
  return out.str();
}

std::string SnapshotToPrometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " counter\n"
        << pname << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " gauge\n" << pname << " " << value << "\n";
  }
  for (const auto& [name, d] : snapshot.histograms) {
    std::string pname = PrometheusName(name);
    out << "# TYPE " << pname << " histogram\n";
    // Emit cumulative buckets up to the highest nonempty one; +Inf
    // always closes the series.
    int top = -1;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (d.buckets[i] != 0) top = i;
    }
    uint64_t cumulative = 0;
    for (int i = 0; i <= top && i < Histogram::kNumBuckets - 1; ++i) {
      cumulative += d.buckets[i];
      out << pname << "_bucket{le=\"" << BucketLe(i) << "\"} " << cumulative
          << "\n";
    }
    out << pname << "_bucket{le=\"+Inf\"} " << d.count << "\n"
        << pname << "_sum " << d.sum << "\n"
        << pname << "_count " << d.count << "\n";
  }
  return out.str();
}

std::string DumpPrometheus() { return SnapshotToPrometheus(TakeSnapshot()); }

}  // namespace rtp::obs
