#ifndef RTP_WORKLOAD_STATS_H_
#define RTP_WORKLOAD_STATS_H_

// Per-node latency statistics for workload runs (genny-style: every op
// node's execution is timed, and the run reports count / mean / min /
// max / stddev plus p50/p99 per node). The quantiles come from the
// existing obs log2-histogram machinery (obs::HistogramDelta), so a
// workload node's latency distribution is the same shape the serve.*
// metrics use.
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

struct NodeStats {
  uint64_t count = 0;   // executions, successful or not
  uint64_t errors = 0;  // non-OK responses (any status)
  // Of `errors`, how many were transport failures (UNAVAILABLE /
  // TRANSPORT_ERROR after retries) rather than op-level responses.
  uint64_t transport_errors = 0;
  // Chaos faults injected into this node's calls, by FaultKind.
  std::array<uint64_t, chaos::kNumFaultKinds> faults{};
  double sum_us = 0;
  double sum_sq_us = 0;
  double min_us = 0;
  double max_us = 0;
  // Latency distribution in nanoseconds; p50/p99 via HistogramDelta.
  obs::HistogramDelta latency_ns;

  void Record(double latency_us, bool ok);
  void Merge(const NodeStats& other);

  double mean_us() const { return count == 0 ? 0 : sum_us / count; }
  double stddev_us() const;
  double p50_us() const { return latency_ns.Quantile(0.50) / 1000.0; }
  double p99_us() const { return latency_ns.Quantile(0.99) / 1000.0; }
};

class WorkloadStats {
 public:
  // The stats cell for `name`, created on first use.
  NodeStats& Node(const std::string& name);

  void Merge(const WorkloadStats& other);

  const std::map<std::string, NodeStats>& nodes() const { return nodes_; }

  // All nodes merged into one distribution (the run's total op stream).
  NodeStats Total() const;
  uint64_t TotalOps() const;
  uint64_t TotalErrors() const;

  // Human-readable per-node table plus a one-line run summary.
  std::string ToText(const std::string& workload_name, int threads,
                     uint64_t seed, double elapsed_s) const;

  // One bench-JSON line per node plus a "total" line, in the format the
  // bench/ binaries emit (fields "bench" and "cpu_time" in ns):
  //   {"bench":"rtp_load/<spec>/<node>/t<threads>","iterations":<count>,
  //    "real_time":<mean_ns>,"cpu_time":<mean_ns>,"time_unit":"ns",
  //    "counters":{"ops":...,"errors":...,"min_us":...,"max_us":...,
  //                "stddev_us":...,"p50_us":...,"p99_us":...}}
  // The total line also carries "rps" (ops / elapsed_s).
  std::string ToBenchJsonLines(const std::string& workload_name, int threads,
                               double elapsed_s) const;

  // "<node> <count>" per line, sorted by node name — the reproducibility
  // artifact the load CI leg diffs between two same-seed runs. Nodes with
  // injected chaos faults add "<node>.fault.<kind> <count>" lines, so the
  // chaos leg's same-seed diff also pins per-node injection counts.
  std::string ToCountsText() const;

 private:
  std::map<std::string, NodeStats> nodes_;
};

}  // namespace rtp::workload

#endif  // RTP_WORKLOAD_STATS_H_
