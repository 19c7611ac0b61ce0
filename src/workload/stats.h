#ifndef RTP_WORKLOAD_STATS_H_
#define RTP_WORKLOAD_STATS_H_

// Per-op latency statistics for workload runs: every op execution is
// timed, and the run reports count / mean / min / max / stddev plus
// p50/p99 per op. The quantiles come from the existing obs log2-histogram
// machinery (obs::HistogramDelta), so an op's latency distribution is
// the same shape the serve.* metrics use.
//
// Threading model: each runner thread records into its own WorkloadStats
// (plain fields, no atomics), and the runner merges thread stats in
// thread-index order after the join — so merged results are deterministic
// for a deterministic op sequence.

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "chaos/chaos.h"
#include "obs/metrics.h"

namespace rtp::workload {

struct OpStats {
  uint64_t count = 0;   // executions, successful or not
  uint64_t errors = 0;  // non-OK responses (any status)
  // Chaos faults injected into this op's calls, by FaultKind.
  std::array<uint64_t, chaos::kNumFaultKinds> faults{};
  double sum_us = 0;
  double sum_sq_us = 0;
  double min_us = 0;
  double max_us = 0;
  // Latency distribution in nanoseconds; p50/p99 via HistogramDelta.
  obs::HistogramDelta latency_ns;

  void Record(double latency_us, bool ok);
  void Merge(const OpStats& other);

  double mean_us() const { return count == 0 ? 0 : sum_us / count; }
  double stddev_us() const;
  double p50_us() const { return latency_ns.Quantile(0.50) / 1000.0; }
  double p99_us() const { return latency_ns.Quantile(0.99) / 1000.0; }
};

class WorkloadStats {
 public:
  // The stats cell for the op `name`, created on first use.
  OpStats& Op(const std::string& name);

  void Merge(const WorkloadStats& other);

  const std::map<std::string, OpStats>& ops() const { return ops_; }

  // All ops merged into one distribution (the run's total op stream).
  OpStats Total() const;

  // Human-readable per-op table plus a one-line run summary.
  std::string ToText(const std::string& workload_name, int threads,
                     uint64_t seed, double elapsed_s) const;

  // "<op> <count>" per line, sorted by op name — the reproducibility
  // artifact the load CI leg diffs between two same-seed runs. Ops with
  // injected chaos faults add "<op>.fault.<kind> <count>" lines, so the
  // chaos leg's same-seed diff also pins per-op injection counts.
  std::string ToCountsText() const;

 private:
  std::map<std::string, OpStats> ops_;
};

}  // namespace rtp::workload

#endif  // RTP_WORKLOAD_STATS_H_
