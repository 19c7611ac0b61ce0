#include "serve/client.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace rtp::serve {
namespace {

// Opens and connects an AF_UNIX stream socket. All failures are
// UNAVAILABLE: "the server cannot be reached" is exactly what retries
// and load harnesses need to distinguish from op-level errors.
StatusOr<int> ConnectFd(const std::string& socket_path) {
  struct sockaddr_un addr;
  memset(&addr, 0, sizeof(addr));
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError("invalid socket path '" + socket_path + "'");
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(std::string("socket(): ") + strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Status status = UnavailableError("cannot connect to rtpd at '" +
                                     socket_path + "': " + strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

bool IsTransportCode(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kTransportError;
}

// Per-kind injection counters; one macro call site per kind so each
// caches its own counter pointer.
void CountInjectedFault(chaos::FaultKind kind) {
  switch (kind) {
    case chaos::FaultKind::kNone:
      break;
    case chaos::FaultKind::kConnectRefused:
      RTP_OBS_COUNT("serve.faults.injected.connect_refused");
      break;
    case chaos::FaultKind::kReadStall:
      RTP_OBS_COUNT("serve.faults.injected.read_stall");
      break;
    case chaos::FaultKind::kWriteStall:
      RTP_OBS_COUNT("serve.faults.injected.write_stall");
      break;
    case chaos::FaultKind::kTornWrite:
      RTP_OBS_COUNT("serve.faults.injected.torn_write");
      break;
    case chaos::FaultKind::kCorruptByte:
      RTP_OBS_COUNT("serve.faults.injected.corrupt_byte");
      break;
    case chaos::FaultKind::kPrematureClose:
      RTP_OBS_COUNT("serve.faults.injected.premature_close");
      break;
    case chaos::FaultKind::kResponseDelay:
      RTP_OBS_COUNT("serve.faults.injected.response_delay");
      break;
  }
}

}  // namespace

bool IsIdempotentOp(std::string_view op) {
  return op == "eval" || op == "checkfd" || op == "matrix" || op == "stats";
}

StatusOr<EvalResult> DecodeEvalResponse(JsonValue response) {
  JsonValue* tuples = response.Find("tuples");
  if (tuples == nullptr || !tuples->is_array()) {
    return TransportError("eval response without 'tuples' array");
  }
  EvalResult result;
  result.tuples.reserve(tuples->array_items().size());
  for (JsonValue& row : tuples->mutable_array_items()) {
    if (!row.is_array()) return TransportError("malformed eval tuple row");
    std::vector<std::string> tuple;
    tuple.reserve(row.array_items().size());
    for (JsonValue& item : row.mutable_array_items()) {
      if (!item.is_string()) return TransportError("malformed eval tuple");
      tuple.push_back(std::move(item.mutable_string_value()));
    }
    result.tuples.push_back(std::move(tuple));
  }
  return result;
}

StatusOr<Client> Client::Connect(const std::string& socket_path,
                                 const ClientOptions& options) {
  RTP_ASSIGN_OR_RETURN(int fd, ConnectFd(socket_path));
  Client client(fd, socket_path, options);
  client.ApplySocketTimeouts(
      options.call_timeout_ms > 0
          ? guard::MonotonicNowNs() +
                int64_t{options.call_timeout_ms} * 1'000'000
          : 0);
  return client;
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_id_(other.next_id_),
      framer_(std::move(other.framer_)),
      socket_path_(std::move(other.socket_path_)),
      options_(other.options_),
      jitter_(other.jitter_),
      retries_(other.retries_),
      reconnects_(other.reconnects_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    next_id_ = other.next_id_;
    framer_ = std::move(other.framer_);
    socket_path_ = std::move(other.socket_path_);
    options_ = other.options_;
    jitter_ = other.jitter_;
    retries_ = other.retries_;
    reconnects_ = other.reconnects_;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::CloseBroken() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  framer_ = LineFramer(std::numeric_limits<size_t>::max());
}

void Client::ApplySocketTimeouts(int64_t deadline_ns) {
  if (fd_ < 0 || deadline_ns <= 0) return;
  int64_t remaining_ns = deadline_ns - guard::MonotonicNowNs();
  // Clamp to at least 1ms: a 0 timeval means "block forever" to the
  // kernel, the opposite of an expired deadline.
  remaining_ns = std::max<int64_t>(remaining_ns, 1'000'000);
  struct timeval tv;
  tv.tv_sec = remaining_ns / 1'000'000'000;
  tv.tv_usec = (remaining_ns % 1'000'000'000) / 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Status Client::Reconnect(int64_t deadline_ns) {
  CloseBroken();
  RTP_ASSIGN_OR_RETURN(int fd, ConnectFd(socket_path_));
  fd_ = fd;
  ++reconnects_;
  ApplySocketTimeouts(deadline_ns);
  return Status::OK();
}

Status Client::SendLine(const std::string& line) {
  if (fd_ < 0) return FailedPreconditionError("client is closed");
  std::string framed = line;
  framed.push_back('\n');
  size_t off = 0;
  while (off < framed.size()) {
    ssize_t n =
        ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return UnavailableError("send timed out (call deadline)");
      }
      return UnavailableError(std::string("send(): ") + strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

StatusOr<std::string> Client::ReadLine() {
  if (fd_ < 0) return FailedPreconditionError("client is closed");
  char chunk[kReadChunkBytes];
  while (true) {
    std::optional<LineFramer::Line> line = framer_.Next();
    if (line.has_value()) return std::move(line->text);
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return UnavailableError("connection closed by server");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return UnavailableError("receive timed out (call deadline)");
      }
      return UnavailableError(std::string("recv(): ") + strerror(errno));
    }
    framer_.Feed(std::string_view(chunk, static_cast<size_t>(n)));
  }
}

StatusOr<JsonValue> Client::CallOnce(const Request& req,
                                     const chaos::FaultDecision& fault,
                                     int64_t deadline_ns,
                                     int64_t* retry_after_ms) {
  *retry_after_ms = 0;
  if (!fault.none()) CountInjectedFault(fault.kind);
  if (fault.kind == chaos::FaultKind::kConnectRefused) {
    // The attempt behaves as if connect() had been refused: nothing goes
    // on the wire, and the connection must be re-established.
    CloseBroken();
    return UnavailableError("injected fault: connect refused");
  }
  if (fd_ < 0) RTP_RETURN_IF_ERROR(Reconnect(deadline_ns));
  if (deadline_ns > 0) {
    if (guard::MonotonicNowNs() >= deadline_ns) {
      return UnavailableError("call deadline exhausted before send");
    }
    ApplySocketTimeouts(deadline_ns);
  }

  Status sent = fault.none()
                    ? SendLine(EncodeRequest(req).Serialize())
                    : chaos::ShimSendLine(fd_, EncodeRequest(req).Serialize(),
                                          fault);
  if (!sent.ok()) {
    if (IsTransportCode(sent.code())) CloseBroken();
    return sent;
  }
  if (fault.kind == chaos::FaultKind::kPrematureClose) {
    CloseBroken();
    return UnavailableError("injected fault: connection closed after send");
  }
  if (fault.kind == chaos::FaultKind::kReadStall) {
    // The response never arrives in time; the stalled connection is
    // abandoned (its late response must not be read by the next call).
    CloseBroken();
    return UnavailableError("injected fault: response stalled past deadline");
  }

  auto line_or = ReadLine();
  if (!line_or.ok()) {
    if (IsTransportCode(line_or.status().code())) CloseBroken();
    return line_or.status();
  }
  auto response_or = JsonValue::Parse(*line_or);
  if (!response_or.ok()) {
    // Bytes arrived but do not frame: the stream can no longer be
    // trusted request-for-response, so drop the connection.
    CloseBroken();
    return TransportError("unparseable response line: " +
                          response_or.status().message());
  }
  JsonValue response = std::move(response_or).value();
  if (response.FindInt("id") != req.id) {
    // rtpd answers a line over its limit, before decoding it, with an
    // id-0 RESOURCE_EXHAUSTED envelope and keeps reading: that answers
    // this request, and the stream is still in step. Its other id-0
    // errors (unparseable JSON, no id) can only mean the bytes of a
    // request this client encoded were damaged in transit.
    Status rejected = ResponseStatus(response);
    if (response.FindInt("id") == 0 &&
        rejected.code() == StatusCode::kResourceExhausted) {
      return rejected;
    }
    // Quote the line's start only: an eval answer runs to megabytes.
    constexpr size_t kQuotedBytes = 200;
    const std::string& line = *line_or;
    std::string quoted = line.size() > kQuotedBytes
                             ? line.substr(0, kQuotedBytes) + "..."
                             : line;
    CloseBroken();
    return TransportError("response id mismatch (sent " +
                          std::to_string(req.id) + ", got a " +
                          std::to_string(line.size()) + "-byte line '" +
                          quoted + "')");
  }
  if (fault.kind == chaos::FaultKind::kResponseDelay) {
    chaos::SleepMs(fault.delay_ms);
  }
  Status status = ResponseStatus(response);
  if (!status.ok()) {
    *retry_after_ms = ResponseRetryAfterMs(response);
    return status;
  }
  return response;
}

StatusOr<JsonValue> Client::Call(Request req,
                                 const chaos::FaultDecision& fault) {
  if (req.id == 0) req.id = next_id_++;
  int64_t deadline_ns =
      options_.call_timeout_ms > 0
          ? guard::MonotonicNowNs() +
                int64_t{options_.call_timeout_ms} * 1'000'000
          : 0;
  const bool idempotent = IsIdempotentOp(req.op);
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  int backoff_ms = std::max(1, options_.retry.initial_backoff_ms);

  Status last;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Chaos applies to the first attempt only: retries run clean, so the
    // injection count per op is exactly one draw regardless of outcome.
    int64_t hint_ms = 0;
    auto result = CallOnce(req, attempt == 0 ? fault : chaos::FaultDecision{},
                           deadline_ns, &hint_ms);
    if (result.ok()) {
      if (attempt > 0) RTP_OBS_COUNT("serve.retries.recovered");
      return result;
    }
    last = result.status();
    bool transport = IsTransportCode(last.code());
    bool shed_with_hint =
        last.code() == StatusCode::kResourceExhausted && hint_ms > 0;
    if (!idempotent || (!transport && !shed_with_hint) ||
        attempt + 1 >= max_attempts) {
      break;
    }
    // Decorrelated jitter: sleep ~ U[initial, 3 * previous], capped. A
    // shed hint raises the floor so a congested server gets its asked-for
    // breathing room.
    int initial = std::max(1, options_.retry.initial_backoff_ms);
    int span = std::max(1, backoff_ms * 3 - initial + 1);
    int sleep_ms =
        initial + static_cast<int>(jitter_.Below(static_cast<uint64_t>(span)));
    sleep_ms = std::min(sleep_ms, options_.retry.max_backoff_ms);
    if (shed_with_hint) {
      sleep_ms = std::max(
          sleep_ms,
          static_cast<int>(std::min<int64_t>(
              hint_ms, options_.retry.max_backoff_ms)));
    }
    if (deadline_ns > 0 &&
        guard::MonotonicNowNs() + int64_t{sleep_ms} * 1'000'000 >=
            deadline_ns) {
      break;  // no budget left for another attempt
    }
    chaos::SleepMs(static_cast<uint32_t>(sleep_ms));
    backoff_ms = std::min(std::max(sleep_ms, initial),
                          std::max(1, options_.retry.max_backoff_ms));
    ++retries_;
    RTP_OBS_COUNT("serve.retries.attempts");
  }
  if (IsTransportCode(last.code()) && max_attempts > 1 && idempotent) {
    RTP_OBS_COUNT("serve.retries.exhausted");
  }
  return last;
}

namespace {

Request BaseRequest(std::string op, std::string tenant,
                    const CallOptions& options) {
  Request req;
  req.op = std::move(op);
  req.tenant = std::move(tenant);
  if (options.budget.Limited()) {
    req.budget = options.budget;
    req.has_budget = true;
  }
  req.profile = options.profile;
  return req;
}

}  // namespace

Status Client::Load(const std::string& tenant, const std::string& doc,
                    const std::string& xml_text, const CallOptions& options) {
  Request req = BaseRequest("load", tenant, options);
  req.doc = doc;
  req.text = xml_text;
  return Call(std::move(req), options.fault).status();
}

StatusOr<EvalResult> Client::Eval(const std::string& tenant,
                                  const std::string& doc,
                                  const std::string& pattern_text,
                                  const CallOptions& options) {
  Request req = BaseRequest("eval", tenant, options);
  req.doc = doc;
  req.text = pattern_text;
  RTP_ASSIGN_OR_RETURN(JsonValue response, Call(std::move(req), options.fault));
  return DecodeEvalResponse(std::move(response));
}

StatusOr<CheckFdResult> Client::CheckFd(const std::string& tenant,
                                        const std::string& doc,
                                        const std::string& fd_text,
                                        const CallOptions& options) {
  Request req = BaseRequest("checkfd", tenant, options);
  req.doc = doc;
  req.text = fd_text;
  RTP_ASSIGN_OR_RETURN(JsonValue response, Call(std::move(req), options.fault));
  const JsonValue* satisfied = response.Find("satisfied");
  if (satisfied == nullptr || !satisfied->is_bool()) {
    return TransportError("checkfd response without 'satisfied'");
  }
  CheckFdResult result;
  result.satisfied = satisfied->bool_value();
  result.mappings = response.FindInt("mappings");
  result.groups = response.FindInt("groups");
  result.violation = response.FindString("violation");
  return result;
}

StatusOr<MatrixResult> Client::Matrix(
    const std::string& tenant, const std::vector<std::string>& fd_texts,
    const std::vector<std::string>& class_texts,
    const std::string& schema_text, const CallOptions& options) {
  Request req = BaseRequest("matrix", tenant, options);
  req.fds = fd_texts;
  req.classes = class_texts;
  req.schema = schema_text;
  RTP_ASSIGN_OR_RETURN(JsonValue response, Call(std::move(req), options.fault));
  const JsonValue* entries = response.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return TransportError("matrix response without 'entries' array");
  }
  MatrixResult result;
  result.num_fds = static_cast<size_t>(response.FindInt("num_fds"));
  result.num_classes = static_cast<size_t>(response.FindInt("num_classes"));
  result.independent = static_cast<size_t>(response.FindInt("independent"));
  result.cells.reserve(entries->array_items().size());
  for (const JsonValue& entry : entries->array_items()) {
    if (!entry.is_object()) return TransportError("malformed matrix entry");
    MatrixCell cell;
    cell.fd_index = static_cast<size_t>(entry.FindInt("fd"));
    cell.class_index = static_cast<size_t>(entry.FindInt("class"));
    cell.independent = entry.FindBool("independent");
    cell.product_size = entry.FindInt("product_size");
    cell.status = StatusCodeFromName(entry.FindString("status", "OK"));
    result.cells.push_back(cell);
  }
  return result;
}

StatusOr<std::vector<TenantStats>> Client::Stats() {
  Request req;
  req.op = "stats";
  RTP_ASSIGN_OR_RETURN(JsonValue response, Call(std::move(req)));
  const JsonValue* tenants = response.Find("tenants");
  if (tenants == nullptr || !tenants->is_array()) {
    return TransportError("stats response without 'tenants' array");
  }
  std::vector<TenantStats> result;
  result.reserve(tenants->array_items().size());
  for (const JsonValue& t : tenants->array_items()) {
    if (!t.is_object()) return TransportError("malformed tenant stats");
    TenantStats stats;
    stats.name = t.FindString("name");
    stats.docs = t.FindInt("docs");
    stats.requests = t.FindInt("requests");
    stats.errors = t.FindInt("errors");
    stats.trips = t.FindInt("trips");
    result.push_back(std::move(stats));
  }
  return result;
}

StatusOr<bool> Client::Drop(const std::string& tenant,
                            const std::string& doc) {
  Request req;
  req.op = "drop";
  req.tenant = tenant;
  req.doc = doc;
  RTP_ASSIGN_OR_RETURN(JsonValue response, Call(std::move(req)));
  return response.FindBool("dropped");
}

Status Client::Quota(const std::string& tenant,
                     const guard::ExecutionBudget& budget) {
  Request req;
  req.op = "quota";
  req.tenant = tenant;
  req.budget = budget;
  req.has_budget = true;
  return Call(std::move(req)).status();
}

Status Client::Shutdown() {
  Request req;
  req.op = "shutdown";
  return Call(std::move(req)).status();
}

}  // namespace rtp::serve
