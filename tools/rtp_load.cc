// rtp_load — declarative load harness for rtpd (docs/WORKLOADS.md).
//
//   rtp_load --spec=FILE --socket=PATH [--threads=N] [--seed=S]
//            [--duration-s=D] [--out=FILE] [--counts-out=FILE]
//            [--allow-errors] [--quiet]
//
// Parses a JSON workload spec (examples/workloads/), drives the rtpd
// socket closed-loop with N client threads, and reports per-node count /
// mean / min / max / stddev / p50 / p99 latency. --out writes bench-JSON
// lines in the format the bench/ binaries emit; --counts-out writes the
// sorted per-node op counts (plus per-node fault-injection counts under
// chaos) the load and chaos CI legs diff between two same-seed runs.
//
// Exit codes (docs/ROBUSTNESS.md): 0 clean run; 1 when the run completed
// but some responses carried op-level error statuses, or executed zero
// ops; 2 for transport failures (UNAVAILABLE / TRANSPORT_ERROR surviving
// the client's retries) and for usage, spec, or connection errors. The
// first failing node and its status are always printed. --allow-errors
// relaxes 1 and 2 back to 0 when the run itself completed with ops > 0 —
// the chaos CI leg uses it, since injected faults are supposed to surface
// as structured errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "workload/runner.h"
#include "workload/spec.h"

namespace {

int Usage(const char* detail = nullptr) {
  if (detail != nullptr) std::fprintf(stderr, "error: %s\n", detail);
  std::fprintf(
      stderr,
      "usage: rtp_load --spec=FILE --socket=PATH [flags]\n"
      "flags: --threads=N      client threads (default 4)\n"
      "       --seed=S         root seed; same spec+seed+threads => same\n"
      "                        per-thread op sequence (default 42)\n"
      "       --duration-s=D   wall-clock cap; 0 = run spec to completion\n"
      "       --out=FILE       append bench-JSON result lines\n"
      "       --counts-out=FILE  write sorted per-node op counts\n"
      "       --allow-errors   exit 0 despite op/transport errors as long\n"
      "                        as the run completed with ops > 0\n"
      "       --quiet          suppress the human summary\n");
  return 2;
}

bool WriteFileOrComplain(const std::string& path, const std::string& content,
                         bool append) {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!out.good()) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path;
  std::string counts_path;
  bool quiet = false;
  bool allow_errors = false;
  rtp::workload::RunnerOptions options;
  options.threads = 4;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto parse_count = [arg](const char* prefix) -> long long {
      const char* value = arg + std::strlen(prefix);
      char* end = nullptr;
      long long parsed = std::strtoll(value, &end, 10);
      if (*value == '\0' || *end != '\0' || parsed < 0) return -1;
      return parsed;
    };
    auto parse_double = [arg](const char* prefix) -> double {
      const char* value = arg + std::strlen(prefix);
      char* end = nullptr;
      double parsed = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || parsed < 0) return -1;
      return parsed;
    };
    if (std::strncmp(arg, "--spec=", 7) == 0) {
      spec_path = arg + 7;
    } else if (std::strncmp(arg, "--socket=", 9) == 0) {
      options.socket_path = arg + 9;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      long long threads = parse_count("--threads=");
      if (threads < 1 || threads > 1024) {
        return Usage("--threads requires an integer in [1, 1024]");
      }
      options.threads = static_cast<int>(threads);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      long long seed = parse_count("--seed=");
      if (seed < 0) return Usage("--seed requires a nonnegative integer");
      options.seed = static_cast<uint64_t>(seed);
    } else if (std::strncmp(arg, "--duration-s=", 13) == 0) {
      options.duration_s = parse_double("--duration-s=");
      if (options.duration_s < 0) {
        return Usage("--duration-s requires a nonnegative number");
      }
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--counts-out=", 13) == 0) {
      counts_path = arg + 13;
    } else if (std::strcmp(arg, "--allow-errors") == 0) {
      allow_errors = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      return Usage(("unknown flag '" + std::string(arg) + "'").c_str());
    }
  }
  if (spec_path.empty()) return Usage("--spec is required");
  if (options.socket_path.empty()) return Usage("--socket is required");

  auto spec_or = rtp::workload::LoadWorkloadSpecFile(spec_path);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "error: %s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const rtp::workload::WorkloadSpec& spec = *spec_or;

  auto result_or = rtp::workload::RunWorkload(spec, options);
  if (!result_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 result_or.status().ToString().c_str());
    return 2;
  }
  const rtp::workload::RunResult& result = *result_or;

  if (!quiet) {
    std::fputs(result.stats
                   .ToText(spec.name, options.threads, options.seed,
                           result.elapsed_s)
                   .c_str(),
               stdout);
    if (result.truncated) {
      std::fputs("note: run truncated by --duration-s; per-node counts are "
                 "not seed-reproducible\n",
                 stdout);
    }
  }
  if (!out_path.empty() &&
      !WriteFileOrComplain(out_path,
                           result.stats.ToBenchJsonLines(
                               spec.name, options.threads, result.elapsed_s),
                           /*append=*/true)) {
    return 2;
  }
  if (!counts_path.empty() &&
      !WriteFileOrComplain(counts_path, result.stats.ToCountsText(),
                           /*append=*/false)) {
    return 2;
  }

  if (result.faults_injected > 0 && !quiet) {
    std::fprintf(stdout,
                 "chaos: %llu faults injected, %llu transport errors "
                 "surfaced\n",
                 static_cast<unsigned long long>(result.faults_injected),
                 static_cast<unsigned long long>(result.transport_errors));
  }
  if (!result.first_error_node.empty()) {
    std::fprintf(stderr, "first failed node: %s (%s)\n",
                 result.first_error_node.c_str(),
                 result.first_error.ToString().c_str());
  }
  if (result.ops == 0) {
    // Even --allow-errors insists on traffic: a silent empty run is a
    // harness bug, not a tolerable fault outcome.
    std::fprintf(stderr, "error: workload executed zero ops\n");
    return 1;
  }
  if (result.transport_errors != 0) {
    std::fprintf(stderr,
                 "error: %llu of %llu ops failed at the transport layer\n",
                 static_cast<unsigned long long>(result.transport_errors),
                 static_cast<unsigned long long>(result.ops));
    return allow_errors ? 0 : 2;
  }
  if (result.errors != 0) {
    std::fprintf(stderr,
                 "error: %llu of %llu ops returned an error status\n",
                 static_cast<unsigned long long>(result.errors),
                 static_cast<unsigned long long>(result.ops));
    return allow_errors ? 0 : 1;
  }
  return 0;
}
