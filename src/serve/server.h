#ifndef RTP_SERVE_SERVER_H_
#define RTP_SERVE_SERVER_H_

// rtpd — resident multi-tenant query service (docs/SERVING.md).
//
// A Server listens on a local AF_UNIX stream socket and speaks the
// line-delimited JSON protocol of serve/protocol.h. Architecture:
//
//   * One accept thread plus one thread per connection. A connection
//     thread decodes each request and runs it itself, a matrix's cells
//     included. The heavy ops (load, eval, checkfd, matrix) first pass a
//     counting admission gate: at most `jobs` execute at once, up to
//     `queue_capacity` more wait on one condition variable, and any
//     request beyond that is shed with a RESOURCE_EXHAUSTED response. The
//     gate is the server's only concurrency control, so at most `jobs`
//     threads run engine code.
//   * State lives in a TenantRegistry (serve/corpus.h): per-tenant
//     alphabet + named pre-indexed documents. The alphabet locks itself,
//     and one short tenant mutex is held only to look up or publish a
//     document and to read or write the tenant's default budget, so
//     requests parse, evaluate and serialize with no tenant lock, and a
//     load never stalls the queries beside it.
//   * Every request runs under the guard machinery: the effective budget
//     is the request's, else the tenant default (quota op), else the
//     server default. Deadlines are anchored at request *arrival* (time
//     spent waiting at the gate counts). Each connection owns a
//     guard::CancelToken. While a request waits or runs, the accept loop
//     polls its socket on a 50 ms tick and cancels the token when the
//     peer hangs up, and Stop() cancels every token, so abandoned work
//     drains promptly. A trip degrades only the offending request: the
//     response carries the resource status and the process
//     (including the warm AutomatonCache) is untouched — budget-limited
//     matrix requests deliberately bypass the shared cache, which must
//     never memoize partially-built automata.
//   * Observability: per-request QueryProfile on demand ("profile":true),
//     serve.* counters/histograms, per-tenant serve.tenant.<name>.*
//     counters, plus the library's own metrics.
//
// Determinism contract: responses for load/eval/checkfd/matrix are
// byte-identical to the equivalent serial library calls (eval tuples come
// in document order from the evaluator and carry WriteXmlSubtree's bytes,
// exactly like rtp_cli), which is what the end-to-end battery in
// tests/serve_test.cc checks against its in-process oracle.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "guard/guard.h"
#include "serve/corpus.h"
#include "serve/protocol.h"

namespace rtp::serve {

struct ServerOptions {
  // Filesystem path of the AF_UNIX socket. A stale socket file from a
  // previous run is replaced.
  std::string socket_path;
  // Heavy ops (load, eval, checkfd, matrix) that may execute at once,
  // each on its own connection thread: at most this many threads run
  // engine code.
  int jobs = 2;
  // Heavy ops that may wait at the admission gate while `jobs` execute;
  // the gate sheds any request beyond that. 0 is the degenerate
  // always-shed configuration: every heavy op is refused with a shed
  // response (used by the overload transcript and tests; a real
  // deployment wants a positive capacity).
  size_t queue_capacity = 1024;
  // A connection that stays silent this long is reaped (closed) by its
  // connection thread, so stalled peers cannot pin threads forever.
  // 0 = never reap (the historical behavior; in-process tests keep it).
  int idle_timeout_ms = 0;
  // Ceiling for the retry_after_ms hint carried by shed responses (the
  // hint itself is one more than the number of requests waiting at the
  // gate).
  int max_retry_after_ms = 1000;
  // A request line longer than this is rejected with RESOURCE_EXHAUSTED
  // and skipped (the connection survives).
  size_t max_line_bytes = 1 << 20;
  // Budget for requests that carry none and whose tenant has no default.
  guard::ExecutionBudget default_budget;
};

class Server {
 public:
  // Binds, listens, and starts the accept thread. The returned server is
  // serving when this returns.
  static StatusOr<std::unique_ptr<Server>> Start(const ServerOptions& options);

  // Stops and joins everything (idempotent with Stop()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Blocks until a shutdown request arrives or Stop() is called.
  void Wait();
  // Bounded Wait: true when the server has been asked to stop.
  bool WaitFor(int timeout_ms);

  // Initiates shutdown: stops accepting, cancels every connection's token
  // (so guarded in-flight work exits promptly) and shuts its socket down,
  // joins all threads, removes the socket file. Safe to call from any
  // thread; idempotent.
  void Stop();

  // Graceful drain (SIGTERM path): immediately unlinks the socket so new
  // connects fail, lets in-flight requests finish and idle connections
  // close on their next poll tick, waits up to grace_ms for every
  // connection to wind down, then Stop()s (forcing any stragglers).
  // Safe to call from any thread; idempotent (later calls just Stop()).
  void Drain(int grace_ms);

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct Connection;

  explicit Server(ServerOptions options);

  Status Listen();
  void AcceptLoop();
  void ServeConnection(Connection* conn);
  // Frames one request line into one response line.
  std::string HandleLine(Connection* conn, const std::string& line);
  // Dispatches a decoded request (heavy ops only once admitted).
  JsonValue HandleRequest(Connection* conn, const Request& req,
                          int64_t arrival_ns);

  JsonValue HandleLoad(Tenant& tenant, const Request& req,
                       const guard::ExecutionBudget& budget,
                       guard::CancelToken* cancel, int64_t arrival_ns);
  JsonValue HandleEval(Tenant& tenant, const Request& req,
                       const guard::ExecutionBudget& budget,
                       guard::CancelToken* cancel, int64_t arrival_ns);
  JsonValue HandleCheckFd(Tenant& tenant, const Request& req,
                          const guard::ExecutionBudget& budget,
                          guard::CancelToken* cancel, int64_t arrival_ns);
  JsonValue HandleMatrix(Tenant& tenant, const Request& req,
                         const guard::ExecutionBudget& budget,
                         guard::CancelToken* cancel);
  JsonValue HandleStats(const Request& req);
  JsonValue HandleDrop(Tenant& tenant, const Request& req);
  JsonValue HandleQuota(Tenant& tenant, const Request& req);

  // The admission gate. Admit blocks while `jobs` requests execute and
  // returns true once the caller may execute; it returns false at once
  // when the gate's queue is full, with the shed response's backoff hint
  // (waiting requests + 1, capped at max_retry_after_ms) in
  // *retry_after_ms. Every admitted request calls Release when done.
  bool Admit(int64_t* retry_after_ms);
  void Release();

  const ServerOptions options_;

  int listen_fd_ = -1;
  // Self-pipe that wakes the accept loop's poll on Stop().
  int wake_pipe_[2] = {-1, -1};

  TenantRegistry tenants_;

  std::mutex gate_mu_;
  std::condition_variable gate_cv_;  // waiters at the gate sleep here
  int executing_ = 0;                // admitted and not yet released
  size_t waiting_ = 0;               // blocked in Admit

  std::mutex mu_;
  std::condition_variable stop_cv_;
  std::atomic<bool> draining_{false};
  bool stop_requested_ = false;
  bool stopped_ = false;  // Stop() ran to completion
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace rtp::serve

#endif  // RTP_SERVE_SERVER_H_
