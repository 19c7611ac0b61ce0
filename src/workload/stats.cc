#include "workload/stats.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace rtp::workload {

void OpStats::Record(double latency_us, bool ok) {
  if (count == 0 || latency_us < min_us) min_us = latency_us;
  if (latency_us > max_us) max_us = latency_us;
  ++count;
  if (!ok) ++errors;
  sum_us += latency_us;
  sum_sq_us += latency_us * latency_us;
  latency_ns.Record(static_cast<uint64_t>(latency_us * 1000.0));
}

void OpStats::Merge(const OpStats& other) {
  if (other.count == 0) return;
  if (count == 0 || other.min_us < min_us) min_us = other.min_us;
  if (other.max_us > max_us) max_us = other.max_us;
  count += other.count;
  errors += other.errors;
  for (int i = 0; i < chaos::kNumFaultKinds; ++i) {
    faults[static_cast<size_t>(i)] += other.faults[static_cast<size_t>(i)];
  }
  sum_us += other.sum_us;
  sum_sq_us += other.sum_sq_us;
  latency_ns.Merge(other.latency_ns);
}

double OpStats::stddev_us() const {
  if (count < 2) return 0;
  double mean = mean_us();
  double variance = sum_sq_us / static_cast<double>(count) - mean * mean;
  return variance > 0 ? std::sqrt(variance) : 0;
}

OpStats& WorkloadStats::Op(const std::string& name) {
  return ops_[name];
}

void WorkloadStats::Merge(const WorkloadStats& other) {
  for (const auto& [name, stats] : other.ops_) {
    ops_[name].Merge(stats);
  }
}

OpStats WorkloadStats::Total() const {
  OpStats total;
  for (const auto& [name, stats] : ops_) {
    (void)name;
    total.Merge(stats);
  }
  return total;
}

std::string WorkloadStats::ToText(const std::string& workload_name,
                                  int threads, uint64_t seed,
                                  double elapsed_s) const {
  OpStats total = Total();
  double rps = elapsed_s > 0 ? static_cast<double>(total.count) / elapsed_s : 0;
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "workload '%s': %d thread%s, seed %llu, %.2fs, %llu ops "
                "(%.1f ops/s), %llu errors\n",
                workload_name.c_str(), threads, threads == 1 ? "" : "s",
                static_cast<unsigned long long>(seed), elapsed_s,
                static_cast<unsigned long long>(total.count), rps,
                static_cast<unsigned long long>(total.errors));
  out << line;
  std::snprintf(line, sizeof(line),
                "%-24s %9s %7s %10s %10s %10s %10s %10s %10s\n", "op",
                "count", "errors", "mean_us", "stddev_us", "min_us", "max_us",
                "p50_us", "p99_us");
  out << line;
  for (const auto& [name, stats] : ops_) {
    std::snprintf(line, sizeof(line),
                  "%-24s %9llu %7llu %10.1f %10.1f %10.1f %10.1f %10.1f "
                  "%10.1f\n",
                  name.c_str(), static_cast<unsigned long long>(stats.count),
                  static_cast<unsigned long long>(stats.errors),
                  stats.mean_us(), stats.stddev_us(), stats.min_us,
                  stats.max_us, stats.p50_us(), stats.p99_us());
    out << line;
  }
  return out.str();
}

std::string WorkloadStats::ToCountsText() const {
  std::ostringstream out;
  for (const auto& [name, stats] : ops_) {
    out << name << " " << stats.count << "\n";
    for (int i = 1; i < chaos::kNumFaultKinds; ++i) {
      uint64_t injected = stats.faults[static_cast<size_t>(i)];
      if (injected == 0) continue;
      out << name << ".fault."
          << chaos::FaultKindName(static_cast<chaos::FaultKind>(i)) << " "
          << injected << "\n";
    }
  }
  return out.str();
}

}  // namespace rtp::workload
