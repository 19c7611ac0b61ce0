#ifndef RTP_SERVE_CLIENT_H_
#define RTP_SERVE_CLIENT_H_

// Client side of the rtpd wire protocol. This is the ONE client
// implementation: `rtp_cli --socket`, rtp_load, the end-to-end test
// battery and perfbench all speak through it, so the protocol has exactly
// one encoder/decoder per side and the golden transcripts pin both.
//
// A Client is a single connection with strictly sequential
// request/response framing (the server responds in request order). It is
// not thread-safe; concurrent callers each open their own Client, which
// is also how the server's per-connection cancellation is scoped.
//
// Resilience (docs/ROBUSTNESS.md "Fault model"): a Client built with a
// nonzero call_timeout_ms never hangs — the per-call wall-clock deadline
// is wired to SO_RCVTIMEO/SO_SNDTIMEO on the socket, and every transport
// failure surfaces as a structured Status: UNAVAILABLE when the server
// cannot be reached or does not answer in time (connect refusal, socket
// timeout, connection closed before the response), TRANSPORT_ERROR when
// bytes arrived but were not a well-formed frame (unparseable response,
// response id mismatch). With a RetryPolicy of max_attempts > 1, failed
// attempts of *idempotent* ops (eval / checkfd / matrix / stats) are
// retried on a fresh connection with exponential backoff and
// decorrelated jitter; load / drop / quota / shutdown are never retried
// (a duplicate would repeat the side effect). Overload sheds that carry
// a retry_after_ms hint are retried the same way, honoring the hint.
//
// Fault injection lives here too, and only here: a call's
// chaos::FaultDecision is applied to its first attempt, and retries run
// clean, so the per-op fault counts of a seeded workload run repeat.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/rng.h"
#include "common/status.h"
#include "guard/guard.h"
#include "serve/framing.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace rtp::serve {

// True for ops safe to retry after a transport failure (the request may
// or may not have executed server-side; these ops change nothing).
bool IsIdempotentOp(std::string_view op);

// Retry discipline for idempotent calls that fail with a transport status
// or a shed-with-hint. Backoff is exponential with decorrelated jitter:
// each sleep is drawn uniformly from [initial_backoff_ms, 3 * previous],
// capped at max_backoff_ms.
struct RetryPolicy {
  int max_attempts = 1;  // total attempts per call; 1 = never retry
  int initial_backoff_ms = 2;
  int max_backoff_ms = 100;
};

// Connection-scoped options (Connect-time).
struct ClientOptions {
  // Per-call wall-clock deadline in milliseconds, applied across all
  // attempts of one Call and wired to SO_RCVTIMEO/SO_SNDTIMEO so a hung
  // server surfaces as UNAVAILABLE instead of a blocked thread.
  // 0 = block indefinitely (the historical behavior).
  int call_timeout_ms = 0;
  RetryPolicy retry;
  // Seed for the jitter stream, so tests can pin backoff schedules.
  uint64_t jitter_seed = 1;
};

// Per-request options shared by the typed wrappers.
struct CallOptions {
  // When limited, sent as the request's budget object (otherwise the
  // tenant default applies server-side).
  guard::ExecutionBudget budget;
  // Ask the server for a QueryProfile ("profile" field of the response).
  bool profile = false;
  // Chaos injection: the decided fault to apply to this call's FIRST
  // attempt (retries always run clean, so injection counts stay
  // deterministic). Drawn from a chaos::FaultPlan by the workload runner.
  chaos::FaultDecision fault;
};

struct EvalResult {
  // tuples[i][j] is the XML serialization of tuple i's j-th subtree,
  // sorted by document order — identical to rtp_cli eval output lines.
  std::vector<std::vector<std::string>> tuples;
};

struct CheckFdResult {
  bool satisfied = true;
  int64_t mappings = 0;
  int64_t groups = 0;
  std::string violation;  // empty when satisfied
};

struct MatrixCell {
  size_t fd_index = 0;
  size_t class_index = 0;
  bool independent = false;
  int64_t product_size = 0;
  // OK, or the resource code of a per-cell budget trip.
  StatusCode status = StatusCode::kOk;

  friend bool operator==(const MatrixCell&, const MatrixCell&) = default;
};

struct MatrixResult {
  size_t num_fds = 0;
  size_t num_classes = 0;
  size_t independent = 0;
  std::vector<MatrixCell> cells;
};

struct TenantStats {
  std::string name;
  int64_t docs = 0;
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t trips = 0;
};

class Client {
 public:
  // Connects to a listening rtpd socket. A failed connect is UNAVAILABLE.
  static StatusOr<Client> Connect(const std::string& socket_path,
                                  const ClientOptions& options = {});

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  // Sends `req` (assigning the next sequential id when req.id == 0) and
  // returns the decoded response envelope; {"ok":false} envelopes become
  // the transported error Status. The full envelope is returned so
  // callers can read op-specific fields (and tests can pin them).
  // Transport failures close the connection; idempotent ops are then
  // retried per the RetryPolicy on a fresh connection. `fault` is the
  // chaos decision applied to the first attempt (kNone = clean).
  StatusOr<JsonValue> Call(Request req,
                           const chaos::FaultDecision& fault = {});

  // Typed wrappers (each one Call()).
  Status Load(const std::string& tenant, const std::string& doc,
              const std::string& xml_text, const CallOptions& options = {});
  StatusOr<EvalResult> Eval(const std::string& tenant, const std::string& doc,
                            const std::string& pattern_text,
                            const CallOptions& options = {});
  StatusOr<CheckFdResult> CheckFd(const std::string& tenant,
                                  const std::string& doc,
                                  const std::string& fd_text,
                                  const CallOptions& options = {});
  StatusOr<MatrixResult> Matrix(const std::string& tenant,
                                const std::vector<std::string>& fd_texts,
                                const std::vector<std::string>& class_texts,
                                const std::string& schema_text = "",
                                const CallOptions& options = {});
  StatusOr<std::vector<TenantStats>> Stats();
  StatusOr<bool> Drop(const std::string& tenant, const std::string& doc);
  Status Quota(const std::string& tenant,
               const guard::ExecutionBudget& budget);
  Status Shutdown();

  // Raw line I/O for the protocol and robustness tests (malformed bytes,
  // mid-request disconnects). SendLine appends the newline itself;
  // ReadLine strips it (and, like the server's LineFramer, a trailing CR,
  // skipping blank lines). ReadLine fails when the server closes first.
  Status SendLine(const std::string& line);
  StatusOr<std::string> ReadLine();

  // The underlying socket (tests close/shutdown it to simulate aborts).
  int fd() const { return fd_; }

  // Lifetime retry/reconnect counters (per client; for tests and stats).
  uint64_t retries() const { return retries_; }
  uint64_t reconnects() const { return reconnects_; }

 private:
  Client(int fd, std::string socket_path, const ClientOptions& options)
      : fd_(fd),
        socket_path_(std::move(socket_path)),
        options_(options),
        jitter_(options.jitter_seed) {}

  // One wire exchange (no retries). Applies `fault`, honors the remaining
  // deadline, and reports the shed hint (0 when none) via retry_after_ms.
  StatusOr<JsonValue> CallOnce(const Request& req,
                               const chaos::FaultDecision& fault,
                               int64_t deadline_ns, int64_t* retry_after_ms);
  // Opens a fresh connection to socket_path_ (closing any current fd) and
  // applies the socket timeouts.
  Status Reconnect(int64_t deadline_ns);
  // Marks the connection broken: close the fd, drop buffered bytes.
  void CloseBroken();
  // Applies SO_RCVTIMEO/SO_SNDTIMEO for the remaining deadline.
  void ApplySocketTimeouts(int64_t deadline_ns);

  int fd_ = -1;
  int64_t next_id_ = 1;
  LineFramer framer_{std::numeric_limits<size_t>::max()};
  std::string socket_path_;
  ClientOptions options_;
  Rng jitter_{1};
  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
};

}  // namespace rtp::serve

#endif  // RTP_SERVE_CLIENT_H_
