// Shared main for every bench_* binary: runs Google Benchmark with the
// normal console output, and additionally emits one machine-readable JSON
// line per benchmark run so BENCH_*.json trajectories can be collected
// (tools/run_benches.sh concatenates them into BENCH_RESULTS.json).
//
// Line shape:
//   {"bench":"BM_EnumerateR2/64","iterations":1234,
//    "real_time":813.2,"cpu_time":812.9,"time_unit":"ns",
//    "counters":{"mappings":96},
//    "metrics":{"counters":{...},"gauges":{...},"histograms":{...}}}
//
// "metrics" is a snapshot of the rtp::obs registry taken right after the
// run finished; values are cumulative for the process, so per-benchmark
// deltas need consecutive-line subtraction. The destination is chosen by
// --json-out=<file> or the RTP_BENCH_JSON env var (append mode); without
// either, lines go to stdout after the console report.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/json_string.h"
#include "obs/metrics.h"

namespace {

// Console output plus one JSON line per iteration run.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonLineReporter(std::ostream* json_out) : json_out_(json_out) {}

  void ReportRuns(const std::vector<Run>& report) override {
    benchmark::ConsoleReporter::ReportRuns(report);
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration) continue;
      if (run.report_big_o || run.report_rms) continue;
      if (run.error_occurred) continue;
      *json_out_ << "{\"bench\":" << rtp::JsonString(run.benchmark_name())
                 << ",\"iterations\":" << run.iterations
                 << ",\"real_time\":" << run.GetAdjustedRealTime()
                 << ",\"cpu_time\":" << run.GetAdjustedCPUTime()
                 << ",\"time_unit\":\""
                 << benchmark::GetTimeUnitString(run.time_unit)
                 << "\",\"counters\":{";
      bool first = true;
      for (const auto& [name, counter] : run.counters) {
        if (!first) *json_out_ << ",";
        first = false;
        *json_out_ << rtp::JsonString(name) << ":" << counter.value;
      }
      *json_out_ << "},\"metrics\":" << rtp::obs::DumpJson() << "}\n";
    }
    json_out_->flush();
  }

 private:
  std::ostream* json_out_;
};

}  // namespace

int main(int argc, char** argv) {
  // Extract our flag before benchmark::Initialize rejects it.
  std::string json_path;
  if (const char* env = std::getenv("RTP_BENCH_JSON")) json_path = env;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_path = argv[i] + 11;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int passthrough_argc = static_cast<int>(passthrough.size());

  std::ofstream json_file;
  std::ostream* json_out = &std::cout;
  if (!json_path.empty()) {
    json_file.open(json_path, std::ios::app);
    if (!json_file) {
      std::cerr << "cannot open --json-out file '" << json_path << "'\n";
      return 1;
    }
    json_out = &json_file;
  }

  benchmark::Initialize(&passthrough_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(passthrough_argc,
                                             passthrough.data())) {
    return 1;
  }
  JsonLineReporter reporter(json_out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
