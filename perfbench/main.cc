// Benchmark binary for the rtp engine and the rtpd daemon.
//
//   perfbench --workload=NAME --inputs=FILE --work=DIR --seed=N
//             --seconds=S --trace=0|1 [--rtpd=PATH] [--ops=N]
//
// Runs one workload on inputs made by gen.py, checks every answer against
// the generator's ground truth, and prints a readable report followed by
// one JSON line (the last line of stdout):
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace=0 reports the end-to-end metrics, --trace=1 the per-layer ones.
// --ops=N replaces the timed window by exactly N ops per client and prints
// per-op-type counts and an answer digest instead (determinism self-test).
//
// perfbench/run.py builds this binary, generates the inputs and runs it.

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

void Tracer::AddPhases(const rtp::obs::QueryProfile& profile, int32_t parent,
                       int64_t base_ns) {
  // Phases arrive in preorder with parent indices into the phase list.
  std::vector<int32_t> index_of(profile.phases.size(), -1);
  for (size_t i = 0; i < profile.phases.size(); ++i) {
    const rtp::obs::CapturedSpan& phase = profile.phases[i];
    auto name = phase_names_.insert(phase.name).first;
    int32_t phase_parent = phase.parent >= 0
                               ? index_of[static_cast<size_t>(phase.parent)]
                               : parent;
    int64_t start = base_ns + static_cast<int64_t>(phase.start_ns);
    spans_.push_back(Span{name->c_str(), start,
                          start + static_cast<int64_t>(phase.dur_ns),
                          phase_parent, spans_[parent].request});
    index_of[i] = static_cast<int32_t>(spans_.size() - 1);
  }
}

void Aggregate(const std::vector<Span>& spans,
               std::map<std::string, LayerStats>* out) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerStats& stats = (*out)[spans[i].name];
    int64_t duration = spans[i].end_ns - spans[i].start_ns;
    ++stats.calls;
    stats.total_ns += duration;
    // Children of one span run one after another, so the part they cover
    // is the sum of their durations.
    stats.self_ns.push_back(std::max<int64_t>(0, duration - child_ns[i]));
  }
}

namespace {

int64_t ReadStealTicks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  long long v[8] = {};
  int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

}  // namespace

int RunProbe() {
  // 16 MB of cache lines linked in shuffled order into one cycle, so every
  // load waits for the one before and successive kernels walk the whole
  // buffer in turn. A line is revisited about every 1.6 s, so the kernel
  // slows down when other work on the host loads the memory bus or evicts
  // the buffer from the shared cache.
  struct alignas(64) Line {
    uint32_t next;
  };
  constexpr uint32_t kLines = (16u << 20) / sizeof(Line);
  constexpr int kLoads = 8192;
  std::vector<Line> lines(kLines);
  std::vector<uint32_t> order(kLines);
  for (uint32_t i = 0; i < kLines; ++i) order[i] = i;
  Rng rng(0x9e3779b97f4a7c15ULL);
  for (uint32_t i = kLines - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Below(i + 1)]);
  }
  for (uint32_t i = 0; i < kLines; ++i) {
    lines[order[i]].next = order[(i + 1) % kLines];
  }
  uint32_t at = 0;
  for (int64_t next = NowNs();; next += kProbePeriodNs) {
    timespec wake{static_cast<time_t>(next / 1'000'000'000),
                  static_cast<long>(next % 1'000'000'000)};
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &wake, nullptr);
    int64_t start = NowNs();
    for (int i = 0; i < kLoads; ++i) at = lines[at].next;
    int64_t end = NowNs();
    // `at` joins the sample so the walk cannot be optimised away.
    HostSample s{end, end - start + (at == kLines ? 1 : 0), ReadStealTicks()};
    if (write(STDOUT_FILENO, &s, sizeof s) != sizeof s) return 0;
  }
}

HostProbe::HostProbe() {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return;
  fcntl(fds[0], F_SETPIPE_SZ, 1 << 20);  // room for a long window's samples
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  char arg0[] = "perfbench", arg1[] = "--probe";
  char* argv[] = {arg0, arg1, nullptr};
  if (posix_spawn(&pid_, "/proc/self/exe", &actions, nullptr, argv,
                  environ) != 0) {
    pid_ = -1;
  }
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  fd_ = fds[0];
  HostSample first;
  if (pid_ > 0 && read(fd_, &first, sizeof first) == sizeof first) {
    samples_.push_back(first);
  }
}

HostProbe::~HostProbe() { Stop(); }

std::vector<HostSample> HostProbe::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (fd_ >= 0) {
    HostSample s;
    while (read(fd_, &s, sizeof s) == sizeof s) samples_.push_back(s);
    close(fd_);
    fd_ = -1;
  }
  return samples_;
}

Slices SliceWindow(const std::vector<std::pair<int64_t, double>>& cpu_samples,
                   std::vector<int64_t> op_end_ns,
                   const std::vector<HostSample>& host) {
  std::sort(op_end_ns.begin(), op_end_ns.end());
  // Cumulative steal at time t: the last host sample at or before t.
  auto steal_at = [&host](int64_t t) -> int64_t {
    auto it = std::upper_bound(
        host.begin(), host.end(), t,
        [](int64_t v, const HostSample& s) { return v < s.t_ns; });
    return it == host.begin() ? host.front().steal_ticks
                              : std::prev(it)->steal_ticks;
  };
  const double ticks_per_s =
      static_cast<double>(sysconf(_SC_CLK_TCK)) * sysconf(_SC_NPROCESSORS_ONLN);
  Slices out;
  for (size_t k = 0; k + 1 < cpu_samples.size(); ++k) {
    auto [t0, cpu0] = cpu_samples[k];
    auto [t1, cpu1] = cpu_samples[k + 1];
    auto ops = std::lower_bound(op_end_ns.begin(), op_end_ns.end(), t1) -
               std::lower_bound(op_end_ns.begin(), op_end_ns.end(), t0);
    if (t1 <= t0) continue;
    out.start_ns.push_back(t0);
    out.end_ns.push_back(t1);
    out.ops.push_back(ops);
    out.cpu_us.push_back(cpu1 - cpu0);
    std::vector<double> probe_us;
    for (const HostSample& s : host) {
      if (s.t_ns >= t0 && s.t_ns < t1) probe_us.push_back(s.probe_ns / 1e3);
    }
    out.probe_us.push_back(Median(probe_us));
    out.steal.push_back(host.empty() ? 0
                                     : (steal_at(t1) - steal_at(t0)) /
                                           (ticks_per_s * (t1 - t0) / 1e9));
  }
  return out;
}

std::vector<bool> QuietSlices(const Slices& slices) {
  double fastest = 0;
  for (double p : slices.probe_us) {
    if (p > 0 && (fastest == 0 || p < fastest)) fastest = p;
  }
  const size_t n = slices.ops.size();
  std::vector<bool> quiet;
  for (size_t k = 0; k < n; ++k) {
    quiet.push_back(slices.probe_us[k] > 0 &&
                    slices.probe_us[k] <= fastest * (1 + kQuietProbeSlack) &&
                    slices.steal[k] < kQuietSteal);
  }
  if (static_cast<size_t>(std::count(quiet.begin(), quiet.end(), true)) * 2 >=
      n) {
    return quiet;
  }
  // A busy host: keep the half of the slices with the least steal (then
  // the fastest probe).
  std::vector<size_t> order(n);
  for (size_t k = 0; k < n; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&slices](size_t a, size_t b) {
    return std::make_pair(slices.steal[a], slices.probe_us[a]) <
           std::make_pair(slices.steal[b], slices.probe_us[b]);
  });
  quiet.assign(n, false);
  for (size_t i = 0; i < (n + 1) / 2; ++i) quiet[order[i]] = true;
  return quiet;
}

std::string SliceNote(const Slices& slices, const std::vector<bool>& quiet) {
  std::ostringstream out;
  out << "per one-second slice (* = quiet host):\n  ops/s    ";
  for (size_t k = 0; k < slices.ops.size(); ++k) {
    out << ' '
        << std::lround(slices.ops[k] * 1e9 /
                       (slices.end_ns[k] - slices.start_ns[k]))
        << (quiet[k] ? "*" : "");
  }
  out << "\n  cpu us/op";
  for (size_t k = 0; k < slices.ops.size(); ++k) {
    out << ' '
        << std::lround(slices.cpu_us[k] / std::max<int64_t>(1, slices.ops[k]));
  }
  out << "\n  probe us ";
  for (double p : slices.probe_us) out << ' ' << std::lround(p);
  out << "\n  steal %  ";
  for (double s : slices.steal) out << ' ' << std::lround(1000 * s) / 10.0;
  return out.str();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  entries_.push_back(Entry{name, value, unit, samples, ""});
}

void Report::Missing(const std::string& name, const std::string& unit,
                     const std::string& reason) {
  entries_.push_back(Entry{name, 0, unit, 0, reason});
}

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  std::printf("%-32s %16s %-9s %s\n", "metric", "value", "unit", "samples");
  for (const Entry& e : entries_) {
    if (!e.missing.empty()) {
      std::printf("%-32s %16s %-9s missing: %s\n", e.name.c_str(), "-",
                  e.unit.c_str(), e.missing.c_str());
    } else {
      std::printf("%-32s %16.6g %-9s %" PRId64 "\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.samples);
    }
  }
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", entries_[i].value);
    if (i > 0) json += ",";
    json += "\"" + entries_[i].name + "\":{\"value\":" + value +
            ",\"unit\":\"" + entries_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void AddEndToEndMetrics(const EndToEnd& run, Report* report) {
  const int64_t completed = run.attempted - run.failed;
  Slices slices = SliceWindow(run.cpu_samples, run.op_end_ns, run.host);
  // On a shared machine other guests slow some seconds down: they steal
  // the CPU, or evict the program's data from the shared cache. Those
  // seconds are found from the host probe alone, never from the program's
  // own results, and left out; every quiet second counts in full.
  std::vector<bool> quiet = QuietSlices(slices);
  if (run.host.empty()) quiet.assign(quiet.size(), true);  // no probe ran
  const int64_t quiet_count = std::count(quiet.begin(), quiet.end(), true);
  report->Note(SliceNote(slices, quiet));
  int64_t quiet_ops = 0, quiet_ns = 0;
  double quiet_cpu_us = 0;
  for (size_t k = 0; k < quiet.size(); ++k) {
    if (!quiet[k]) continue;
    quiet_ops += slices.ops[k];
    quiet_ns += slices.end_ns[k] - slices.start_ns[k];
    quiet_cpu_us += slices.cpu_us[k];
  }
  std::vector<int64_t> quiet_latency_ns;
  for (size_t i = 0; i < run.op_end_ns.size(); ++i) {
    auto k = std::upper_bound(slices.start_ns.begin(), slices.start_ns.end(),
                              run.op_end_ns[i]) -
             slices.start_ns.begin() - 1;
    if (k >= 0 && run.op_end_ns[i] < slices.end_ns[k] && quiet[k]) {
      quiet_latency_ns.push_back(run.latency_ns[i]);
    }
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "%lld of %zu slices quiet; whole window: p50 %.1f us, "
                "p99 %.1f us over %zu ops",
                static_cast<long long>(quiet_count), quiet.size(),
                Quantile(run.latency_ns, 0.50) / 1e3,
                Quantile(run.latency_ns, 0.99) / 1e3, run.latency_ns.size());
  report->Note(line);
  report->Note("error_ratio " +
               std::to_string(static_cast<double>(run.failed) /
                              std::max<int64_t>(1, run.attempted)) +
               " (" + std::to_string(run.failed) + " of " +
               std::to_string(run.attempted) + " ops)");
  const auto n = [](const auto& v) { return static_cast<int64_t>(v.size()); };
  report->Add("setup_s", Median(run.setup_s), "s", n(run.setup_s));
  const double ops = static_cast<double>(std::max<int64_t>(1, quiet_ops));
  report->Add("throughput_ops",
              quiet_ops * 1e9 / std::max<double>(1, quiet_ns), "ops/s",
              quiet_ops);
  report->Add("latency_p50_us", Quantile(quiet_latency_ns, 0.50) / 1e3, "us",
              n(quiet_latency_ns));
  report->Add("latency_p99_us", Quantile(quiet_latency_ns, 0.99) / 1e3, "us",
              n(quiet_latency_ns));
  report->Add("cpu_us_per_op", quiet_cpu_us / ops, "us", quiet_ops);
  report->Add("peak_rss_mb", run.peak_rss_mb, "MB", 1);
  report->Add("success_ratio",
              static_cast<double>(completed) /
                  std::max<int64_t>(1, run.attempted),
              "fraction", run.attempted);
}

void PrintSelftest(int64_t attempted, int64_t failed,
                   const std::map<std::string, int64_t>& counts,
                   uint64_t digest) {
  std::string fields;
  for (const auto& [type, count] : counts) {
    fields += (fields.empty() ? "\"" : ",\"") + type + "\":" +
              std::to_string(count);
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"counts\":{%s},\"digest\":\"%016llx\"}\n",
              failed == 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), fields.c_str(),
              static_cast<unsigned long long>(digest));
}

void PrintLayerTable(const std::string& title,
                     const std::map<std::string, LayerStats>& layers,
                     int64_t end_to_end_ns) {
  std::printf("%s\n", title.c_str());
  std::printf("  %-34s %8s %12s %12s %8s\n", "span", "calls", "self p50 us",
              "self mean us", "share");
  for (const auto& [name, stats] : layers) {
    int64_t self_total = 0;
    for (int64_t ns : stats.self_ns) self_total += ns;
    double mean_us =
        stats.calls > 0 ? self_total / 1e3 / static_cast<double>(stats.calls)
                        : 0;
    double share = end_to_end_ns > 0
                       ? static_cast<double>(self_total) / end_to_end_ns
                       : 0;
    std::printf("  %-34s %8" PRId64 " %12.2f %12.2f %7.1f%%\n", name.c_str(),
                stats.calls, Quantile(stats.self_ns, 0.5) / 1e3, mean_us,
                100 * share);
  }
}

void AddLayerMetrics(const std::map<std::string, LayerValue>& values,
                     const std::string& why_missing, Report* report) {
  for (const LayerMetric& m : kLayerMetrics) {
    auto it = values.find(m.name);
    if (it == values.end()) {
      report->Missing(m.name, m.unit, why_missing);
    } else {
      report->Add(m.name, it->second.value, m.unit, it->second.samples);
    }
  }
}

LayerValue MeanSpanUs(const std::map<std::string, LayerStats>& layers,
                      const std::string& name) {
  auto it = layers.find(name);
  if (it == layers.end() || it->second.calls == 0) return LayerValue{};
  return LayerValue{it->second.total_ns / 1e3 / it->second.calls,
                    it->second.calls};
}

double TracingOverhead(int64_t window_start_ns, int64_t window_end_ns,
                       int64_t untraced_ops, int64_t traced_ops,
                       int64_t excluded_traced_ns) {
  int64_t time_ns[2] = {0, 0};
  for (int64_t b = window_start_ns; b < window_end_ns; b += kTraceBlockNs) {
    time_ns[InTracedBlock(window_start_ns, b) ? 1 : 0] +=
        std::min(window_end_ns, b + kTraceBlockNs) - b;
  }
  time_ns[1] -= excluded_traced_ns;
  if (time_ns[0] <= 0 || time_ns[1] <= 0 || untraced_ops == 0) return 0;
  double untraced = untraced_ops / static_cast<double>(time_ns[0]);
  double traced = traced_ops / static_cast<double>(time_ns[1]);
  return 1 - traced / untraced;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::app);
  for (const Span& s : spans) {
    out << s.request << '\t' << s.name << '\t' << s.start_ns << '\t'
        << s.end_ns << '\t' << s.parent << '\n';
  }
}

rtp::serve::JsonValue ReadInputs(const Options& options) {
  std::ifstream in(options.inputs, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  auto json = rtp::serve::JsonValue::Parse(text.str());
  if (!in || !json.ok()) {
    std::fprintf(stderr, "perfbench: cannot read inputs %s\n",
                 options.inputs.c_str());
    std::exit(2);
  }
  return std::move(json).value();
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace perfbench

namespace {

int Usage(const char* detail) {
  std::fprintf(stderr, "perfbench: %s\n", detail);
  return 2;
}

bool Flag(const char* arg, const char* name, std::string* value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--probe") == 0) {
    return perfbench::RunProbe();
  }
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (Flag(argv[i], "--workload", &v)) {
      options.workload = v;
    } else if (Flag(argv[i], "--inputs", &v)) {
      options.inputs = v;
    } else if (Flag(argv[i], "--rtpd", &v)) {
      options.rtpd = v;
    } else if (Flag(argv[i], "--work", &v)) {
      options.work = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      options.seconds = std::atof(v.c_str());
    } else if (Flag(argv[i], "--trace", &v)) {
      options.trace = v == "1";
    } else if (Flag(argv[i], "--ops", &v)) {
      options.fixed_ops = std::atoll(v.c_str());
    } else {
      return Usage((std::string("unknown argument ") + argv[i]).c_str());
    }
  }
  if (options.inputs.empty() || options.work.empty()) {
    return Usage("--inputs and --work are required");
  }
  if (options.seconds <= 0 && options.fixed_ops <= 0) {
    return Usage("--seconds must be positive");
  }
  if (options.workload == "serve_point" || options.workload == "serve_scan") {
    if (options.rtpd.empty()) return Usage("--rtpd is required");
    return perfbench::RunServeWorkload(options);
  }
  if (options.workload == "fd_maintenance") {
    return perfbench::RunFdMaintenance(options);
  }
  return Usage("unknown --workload");
}
