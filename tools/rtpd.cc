// rtpd — resident multi-tenant query daemon (docs/SERVING.md).
//
//   rtpd --socket=PATH [--jobs=N] [--queue-capacity=N]
//        [--max-line-bytes=N] [--idle-timeout-ms=N] [--drain-grace-ms=N]
//        [--max-retry-after-ms=N] [--deadline-ms=N] [--max-states=N]
//        [--max-steps=N] [--max-memory-mb=N] [--log-level=LEVEL]
//
// Serves the line-delimited JSON protocol of src/serve/protocol.h on a
// local AF_UNIX socket until it receives a shutdown request, SIGINT, or
// SIGTERM. The budget flags set the server-wide default applied to
// requests that carry no budget and whose tenant has no quota.
//
// SIGTERM drains gracefully (docs/ROBUSTNESS.md): the socket path is
// removed immediately so new connects fail, in-flight requests finish,
// and only after --drain-grace-ms are stragglers severed. SIGINT and the
// shutdown op stop immediately: every connection's cancel token fires,
// so in-flight guarded work trips and exits promptly.
//
// Exit codes: 0 clean shutdown, 2 usage or startup error.

#include <malloc.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "exec/parallel_for.h"
#include "obs/log.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

int Usage(const char* detail = nullptr) {
  if (detail != nullptr) std::fprintf(stderr, "error: %s\n", detail);
  std::fprintf(stderr,
               "usage: rtpd --socket=PATH [flags]\n"
               "flags: --jobs=N            heavy requests executing at "
               "once, on at most N threads (default 2, 0 = hardware)\n"
               "       --queue-capacity=N  heavy requests waiting for a "
               "slot before sheds (default 1024)\n"
               "       --max-line-bytes=N  request line size cap "
               "(default 1048576)\n"
               "       --idle-timeout-ms=N reap connections silent this "
               "long (default 30000, 0 = never)\n"
               "       --drain-grace-ms=N  SIGTERM drain window before "
               "severing stragglers (default 5000)\n"
               "       --max-retry-after-ms=N cap on the retry_after_ms "
               "hint in shed responses (default 1000)\n"
               "       --deadline-ms=N     default wall-clock budget per "
               "request\n"
               "       --max-states=N      default automaton-state quota\n"
               "       --max-steps=N       default step quota\n"
               "       --max-memory-mb=N   default approximate memory "
               "budget\n"
               "       --log-level=LEVEL   debug|info|warn|error|off\n");
  return 2;
}

// Upper bound of the millisecond flags, which land in int fields.
constexpr int64_t kMaxMs = std::numeric_limits<int>::max();

int64_t ParseCountFlag(const char* arg, const char* prefix) {
  const char* value = arg + std::strlen(prefix);
  char* end = nullptr;
  long long parsed = std::strtoll(value, &end, 10);
  if (*value == '\0' || *end != '\0' || parsed < 0) return -1;
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Each heavy request allocates and frees several MB on its connection
  // thread. With glibc's default thresholds that memory goes back to the
  // kernel after every request (arena trim, munmap of large chunks) and
  // the next request faults it in again, paying system time each time.
  // Keep freed memory in the arenas instead.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
#endif
  rtp::serve::ServerOptions options;
  options.idle_timeout_ms = 30000;
  int drain_grace_ms = 5000;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--socket=", 9) == 0) {
      options.socket_path = arg + 9;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      int64_t jobs = ParseCountFlag(arg, "--jobs=");
      if (jobs < 0 || jobs > 1024) {
        return Usage("--jobs requires an integer in [0, 1024]");
      }
      options.jobs =
          jobs == 0 ? rtp::exec::DefaultJobs() : static_cast<int>(jobs);
    } else if (std::strncmp(arg, "--queue-capacity=", 17) == 0) {
      int64_t cap = ParseCountFlag(arg, "--queue-capacity=");
      if (cap <= 0) return Usage("--queue-capacity requires a positive integer");
      options.queue_capacity = static_cast<size_t>(cap);
    } else if (std::strncmp(arg, "--max-line-bytes=", 17) == 0) {
      int64_t bytes = ParseCountFlag(arg, "--max-line-bytes=");
      if (bytes <= 0) {
        return Usage("--max-line-bytes requires a positive integer");
      }
      options.max_line_bytes = static_cast<size_t>(bytes);
    } else if (std::strncmp(arg, "--idle-timeout-ms=", 18) == 0) {
      int64_t ms = ParseCountFlag(arg, "--idle-timeout-ms=");
      if (ms < 0 || ms > kMaxMs) {
        return Usage(
            "--idle-timeout-ms requires an integer in [0, 2147483647]");
      }
      options.idle_timeout_ms = static_cast<int>(ms);
    } else if (std::strncmp(arg, "--drain-grace-ms=", 17) == 0) {
      int64_t ms = ParseCountFlag(arg, "--drain-grace-ms=");
      if (ms < 0 || ms > kMaxMs) {
        return Usage(
            "--drain-grace-ms requires an integer in [0, 2147483647]");
      }
      drain_grace_ms = static_cast<int>(ms);
    } else if (std::strncmp(arg, "--max-retry-after-ms=", 21) == 0) {
      int64_t ms = ParseCountFlag(arg, "--max-retry-after-ms=");
      if (ms < 0 || ms > kMaxMs) {
        return Usage(
            "--max-retry-after-ms requires an integer in [0, 2147483647]");
      }
      options.max_retry_after_ms = static_cast<int>(ms);
    } else if (std::strncmp(arg, "--deadline-ms=", 14) == 0) {
      options.default_budget.deadline_ms = ParseCountFlag(arg, "--deadline-ms=");
      if (options.default_budget.deadline_ms < 0) {
        return Usage("--deadline-ms requires a nonnegative integer");
      }
    } else if (std::strncmp(arg, "--max-states=", 13) == 0) {
      options.default_budget.max_automaton_states =
          ParseCountFlag(arg, "--max-states=");
      if (options.default_budget.max_automaton_states < 0) {
        return Usage("--max-states requires a nonnegative integer");
      }
    } else if (std::strncmp(arg, "--max-steps=", 12) == 0) {
      options.default_budget.max_steps = ParseCountFlag(arg, "--max-steps=");
      if (options.default_budget.max_steps < 0) {
        return Usage("--max-steps requires a nonnegative integer");
      }
    } else if (std::strncmp(arg, "--max-memory-mb=", 16) == 0) {
      int64_t mb = ParseCountFlag(arg, "--max-memory-mb=");
      if (mb < 0 || mb > (int64_t{1} << 40)) {
        return Usage("--max-memory-mb requires a nonnegative integer");
      }
      options.default_budget.max_memory_bytes = mb << 20;
    } else if (std::strncmp(arg, "--log-level=", 12) == 0) {
      auto level = rtp::obs::ParseLogLevel(arg + 12);
      if (!level) return Usage("--log-level must be debug|info|warn|error|off");
      rtp::obs::SetLogLevel(*level);
    } else {
      return Usage(("unknown flag '" + std::string(arg) + "'").c_str());
    }
  }
  if (options.socket_path.empty()) return Usage("--socket is required");

  auto server_or = rtp::serve::Server::Start(options);
  if (!server_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 server_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<rtp::serve::Server> server = std::move(server_or).value();
  std::fprintf(stderr, "rtpd: serving on %s\n", options.socket_path.c_str());

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  // Poll in short slices: signal handlers cannot touch the server's
  // condition variable, so the main thread checks the flag between waits.
  while (!server->WaitFor(200)) {
    if (g_signal != 0) break;
  }
  if (g_signal == SIGTERM) {
    std::fprintf(stderr, "rtpd: draining (grace %dms)\n", drain_grace_ms);
    server->Drain(drain_grace_ms);
  } else {
    server->Stop();
  }
  std::fprintf(stderr, "rtpd: stopped\n");
  return 0;
}
