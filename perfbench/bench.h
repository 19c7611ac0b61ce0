// Shared pieces of the benchmark binary: options, the seeded op RNG, the
// span recorder of the traced run, order statistics and the result report.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "serve/json.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::string inputs;  // JSON written by gen.py
  std::string rtpd;    // daemon binary (serve workloads)
  std::string work;    // scratch directory inside the checkout
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // > 0: run exactly this many ops per client instead of a timed window
  // (the determinism self-test).
  int64_t fixed_ops = 0;
};

// Cold starts per measured run; setup_s is their median. The determinism
// self-test makes one.
inline constexpr int kSetupReps = 7;

// splitmix64: the op-choice stream. Seeded per client from the workload
// seed, so one seed always yields one request sequence.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// FNV-1a, for the self-test's answer digests.
inline uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}
inline uint64_t Fnv(uint64_t h, const std::string& s) {
  h = Fnv(h, s.data(), s.size());
  return Fnv(h, "\0", 1);
}
inline uint64_t Fnv(uint64_t h, int64_t v) { return Fnv(h, &v, sizeof v); }
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// Spans of the traced run: name, start, end, parent and request id, kept
// in memory and written out when the run ends.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  int64_t request;
};

class Tracer {
 public:
  int32_t Open(const char* name, int64_t request) {
    spans_.push_back(Span{name, NowNs(), 0, current_, request});
    current_ = static_cast<int32_t>(spans_.size() - 1);
    return current_;
  }
  void Close(int32_t index) {
    spans_[index].end_ns = NowNs();
    current_ = spans_[index].parent;
  }
  // Adds a profile's phase tree as children of span `parent`; phase start
  // times are relative to the profile scope, which opened at `base_ns`.
  void AddPhases(const rtp::obs::QueryProfile& profile, int32_t parent,
                 int64_t base_ns);
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& mutable_spans() { return spans_; }

 private:
  std::vector<Span> spans_;
  // Interned phase names (set nodes do not move, so spans can point in).
  std::set<std::string, std::less<>> phase_names_;
  int32_t current_ = -1;
};

// RAII span; inert when the tracer is null (untraced ops).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

// Per span name: call count, total duration and self times (duration
// minus the part covered by child spans).
struct LayerStats {
  int64_t calls = 0;
  int64_t total_ns = 0;
  std::vector<int64_t> self_ns;
};
// Adds `spans` (one tracer's, so parent indices are local) to `out`.
void Aggregate(const std::vector<Span>& spans,
               std::map<std::string, LayerStats>* out);

// Host contention, read from outside the program. A probe process (this
// binary with --probe) times a fixed memory-bound kernel every
// kProbePeriodNs and reads the machine's cumulative steal time from
// /proc/stat. Neither reading depends on how fast the program runs.
inline constexpr int64_t kProbePeriodNs = 50'000'000;
struct HostSample {
  int64_t t_ns;         // steady clock when the kernel ended
  int64_t probe_ns;     // how long the kernel took
  int64_t steal_ticks;  // steal time of all CPUs so far, in clock ticks
};
// The probe process's main loop; writes HostSamples to stdout until killed.
int RunProbe();

// Owns one probe process: the destructor kills and reaps it if Stop() did
// not.
class HostProbe {
 public:
  // Starts the probe and waits for its first sample.
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;
  // Stops the probe; returns its samples (none if it did not start).
  std::vector<HostSample> Stop();

 private:
  pid_t pid_ = -1;
  int fd_ = -1;  // read end of the probe's stdout
  std::vector<HostSample> samples_;
};

// One-second slices of a window. They run between consecutive CPU samples
// (time, cumulative CPU us of the working process), taken about once a
// second from the window's start to its deadline.
struct Slices {
  std::vector<int64_t> start_ns;  // slice k covers [start_ns[k], end_ns[k])
  std::vector<int64_t> end_ns;
  std::vector<int64_t> ops;  // ops that ended in the slice
  std::vector<double> cpu_us;
  // Host readings: median probe time and the share of all CPU time the
  // hypervisor stole.
  std::vector<double> probe_us;
  std::vector<double> steal;
};
Slices SliceWindow(const std::vector<std::pair<int64_t, double>>& cpu_samples,
                   std::vector<int64_t> op_end_ns,
                   const std::vector<HostSample>& host);

// A slice is quiet when the host was: its probe time is within
// kQuietProbeSlack of the window's fastest slice and less than kQuietSteal
// of all CPU time was stolen. When fewer than half of the slices are quiet,
// the half with the least steal counts as quiet instead. The end-to-end
// metrics count only quiet slices.
inline constexpr double kQuietProbeSlack = 0.25;
inline constexpr double kQuietSteal = 0.03;
std::vector<bool> QuietSlices(const Slices& slices);
// Report lines listing the per-slice rates and host readings.
std::string SliceNote(const Slices& slices, const std::vector<bool>& quiet);

// Exact order statistic of raw samples: the smallest sample with at least
// q of all samples at or below it.
template <typename T>
T Quantile(std::vector<T> samples, double q) {
  if (samples.empty()) return T{};
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}
double Median(std::vector<double> values);

// Collects the run's metrics and prints them: a readable table (name,
// value, unit, sample count) and, as the last stdout line, the result
// object {correct, attempted, failed, metrics}.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples);
  // A per-layer metric that does not apply to this workload: reported as
  // 0 in the JSON line and as missing, with the reason, in the table.
  void Missing(const std::string& name, const std::string& unit,
               const std::string& reason);
  void Note(const std::string& line) { notes_.push_back(line); }
  // Prints the table and the final JSON line.
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
    std::string missing;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
};

// What a measured (untraced) run collects for the end-to-end metrics.
struct EndToEnd {
  std::vector<double> setup_s;  // one per cold start
  // (time, cumulative CPU us of the working process), about once a second.
  std::vector<std::pair<int64_t, double>> cpu_samples;
  std::vector<int64_t> op_end_ns;   // op i ended at op_end_ns[i]
  std::vector<int64_t> latency_ns;  // and took latency_ns[i]
  std::vector<HostSample> host;     // the probe's samples
  double peak_rss_mb = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
};
void AddEndToEndMetrics(const EndToEnd& run, Report* report);

// The determinism self-test's result line: per-op-type counts and the
// answer digest.
void PrintSelftest(int64_t attempted, int64_t failed,
                   const std::map<std::string, int64_t>& counts,
                   uint64_t digest);

// Prints the per-layer self-time table of a traced run: calls, self time
// p50 and mean, and each layer's share of `end_to_end_ns` (the summed
// latency of the ops the spans belong to).
void PrintLayerTable(const std::string& title,
                     const std::map<std::string, LayerStats>& layers,
                     int64_t end_to_end_ns);

// Writes spans as tab-separated lines: request, name, start, end, parent.
void WriteSpans(const std::string& path, const std::vector<Span>& spans);

// Parses the inputs file gen.py wrote; exits with a message when it
// cannot.
rtp::serve::JsonValue ReadInputs(const Options& options);

// Peak resident set (VmHWM) of a process, in MB.
double ProcessPeakRssMb(pid_t pid);
// Returns freed heap to the system and restarts this process's peak RSS
// mark, so the benchmark's own input parsing stays out of the peak.
void ResetPeakRss();

// The per-layer metrics every traced run reports, in report order. A
// workload that does not exercise a layer reports it as missing.
struct LayerMetric {
  const char* name;
  const char* unit;
};
inline constexpr LayerMetric kLayerMetrics[] = {
    {"serve.transport_us", "us"},
    {"serve.overhead_us", "us"},
    {"serve.busy_cores", "cores"},
    {"serve.decode_us", "us"},
    {"serve.response_bytes", "bytes"},
    {"exec.pool.tasks_per_op", "count"},
    {"regex.compilations_per_op", "count"},
    {"regex.dfa_states_per_op", "count"},
    {"pattern.parse_us", "us"},
    {"pattern.tables_us", "us"},
    {"pattern.enumerate_us", "us"},
    {"pattern.mappings_per_op", "count"},
    {"xml.parse_us", "us"},
    {"xml.index_us", "us"},
    {"xml.serialize_us", "us"},
    {"fd.check_us", "us"},
    {"fd.group_us", "us"},
    {"fd.index_revalidate_us", "us"},
    {"update.apply_us", "us"},
    {"update.structural_share", "fraction"},
    {"independence.criterion_us", "us"},
    {"automata.compile_us", "us"},
    {"automata.product_us", "us"},
    {"automata.emptiness_us", "us"},
    {"automata.product_states", "count"},
    {"independence.skip_ratio", "fraction"},
    {"trace.overhead", "fraction"},
};

// One measured per-layer value and the number of samples behind it.
struct LayerValue {
  double value = 0;
  int64_t samples = 0;
};

// Adds every kLayerMetrics entry to `report`: the measured value when
// `values` has it, else missing with `why_missing`.
void AddLayerMetrics(const std::map<std::string, LayerValue>& values,
                     const std::string& why_missing, Report* report);

// Mean duration in microseconds of the spans named `name`, and their count.
LayerValue MeanSpanUs(const std::map<std::string, LayerStats>& layers,
                      const std::string& name);

// Throughput of the traced and untraced halves of a window whose ops
// alternate between the two in blocks of kTraceBlockNs, as 1 - traced /
// untraced ops per second. `busy_ns` is excluded from the traced time.
inline constexpr int64_t kTraceBlockNs = 500'000'000;
inline bool InTracedBlock(int64_t window_start_ns, int64_t now_ns) {
  return ((now_ns - window_start_ns) / kTraceBlockNs) % 2 == 1;
}
double TracingOverhead(int64_t window_start_ns, int64_t window_end_ns,
                       int64_t untraced_ops, int64_t traced_ops,
                       int64_t excluded_traced_ns);

int RunServeWorkload(const Options& options);
int RunFdMaintenance(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
