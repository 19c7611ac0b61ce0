#include "serve/server.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <utility>

#include "exec/automaton_cache.h"
#include "fd/fd_checker.h"
#include "independence/matrix.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "schema/schema.h"
#include "serve/framing.h"
#include "serve/json.h"
#include "update/update_class.h"
#include "xml/xml_io.h"

// POLLRDHUP (peer closed its write side) is the reliable mid-request
// disconnect signal on Linux; glibc exposes it under _GNU_SOURCE, which
// g++ defines for C++, but guard the definition for other libcs.
#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace rtp::serve {
namespace {

// Sends `line` and its '\n' terminator, gathered by sendmsg, so a large
// response is not copied to append the newline.
bool SendLine(int fd, std::string_view line) {
  char newline = '\n';
  size_t off = 0;
  while (off <= line.size()) {
    struct iovec iov[2];
    size_t n_iov = 0;
    if (off < line.size()) {
      iov[n_iov++] = {const_cast<char*>(line.data() + off), line.size() - off};
    }
    iov[n_iov++] = {&newline, 1};
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// How often the accept loop refreshes the set of busy connections it
// watches for a peer hang-up, so a request that starts between two polls
// is watched within this long.
constexpr int kWatchTickMs = 50;

// Per-op request counters; one macro call site per op so each caches its
// own counter pointer.
void CountOp(const std::string& op) {
  if (op == "load") RTP_OBS_COUNT("serve.requests.load");
  else if (op == "eval") RTP_OBS_COUNT("serve.requests.eval");
  else if (op == "checkfd") RTP_OBS_COUNT("serve.requests.checkfd");
  else if (op == "matrix") RTP_OBS_COUNT("serve.requests.matrix");
  else if (op == "stats") RTP_OBS_COUNT("serve.requests.stats");
  else if (op == "drop") RTP_OBS_COUNT("serve.requests.drop");
  else if (op == "quota") RTP_OBS_COUNT("serve.requests.quota");
  else if (op == "shutdown") RTP_OBS_COUNT("serve.requests.shutdown");
}

// Embeds a QueryProfile into a response as structured JSON (the profile's
// own serializer emits one JSON object).
void AttachProfile(JsonValue* response, const obs::QueryProfile& profile) {
  auto parsed = JsonValue::Parse(profile.ToJson());
  response->Add("profile", parsed.ok() ? std::move(parsed).value()
                                       : JsonValue::Null());
}

// The tenant's entry named `doc`, or null. The tenant mutex is held for
// the map lookup only: the entry is immutable once published.
std::shared_ptr<const CorpusEntry> FindDoc(Tenant& tenant,
                                           const std::string& doc) {
  std::lock_guard<std::mutex> lock(tenant.mu);
  auto it = tenant.docs.find(doc);
  return it == tenant.docs.end() ? nullptr : it->second;
}

JsonValue MissingDocResponse(const Tenant& tenant, const Request& req) {
  return MakeErrorResponse(
      req.id, NotFoundError("tenant '" + tenant.name + "' has no document '" +
                            req.doc + "'"));
}

}  // namespace

// One accepted client. The connection thread owns the socket for reads
// and writes and runs the connection's requests; while `busy`, the accept
// loop polls the fd for a hang-up and fires `cancel`.
struct Server::Connection {
  int fd = -1;
  std::thread thread;
  guard::CancelToken cancel;
  std::atomic<bool> busy{false};  // a heavy op is waiting or running
  std::atomic<bool> done{false};
};

Server::Server(ServerOptions options) : options_(std::move(options)) {}

StatusOr<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  std::unique_ptr<Server> server(new Server(options));
  RTP_RETURN_IF_ERROR(server->Listen());
  server->accept_thread_ = std::thread(&Server::AcceptLoop, server.get());
  RTP_LOG(INFO) << "rtpd listening on " << options.socket_path << " ("
                << std::max(1, options.jobs) << " workers)";
  return server;
}

Server::~Server() { Stop(); }

Status Server::Listen() {
  if (options_.socket_path.empty()) {
    return InvalidArgumentError("socket_path must not be empty");
  }
  struct sockaddr_un addr;
  memset(&addr, 0, sizeof(addr));
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgumentError("socket path '" + options_.socket_path +
                                "' exceeds the AF_UNIX path limit");
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return InternalError(std::string("socket(): ") + strerror(errno));
  }
  // A stale socket file from a crashed predecessor would make bind fail
  // with EADDRINUSE; the path is ours by contract, so replace it.
  ::unlink(options_.socket_path.c_str());
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, options_.socket_path.c_str(),
         options_.socket_path.size());
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return InternalError("bind('" + options_.socket_path +
                         "'): " + strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return InternalError(std::string("listen(): ") + strerror(errno));
  }
  if (::pipe(wake_pipe_) != 0) {
    return InternalError(std::string("pipe(): ") + strerror(errno));
  }
  return Status::OK();
}

void Server::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

bool Server::WaitFor(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return stop_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [this] { return stop_requested_; });
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
    stop_cv_.notify_all();
    if (stopped_) return;  // another caller already tore down
    stopped_ = true;
  }
  if (wake_pipe_[1] >= 0) {
    char byte = 0;
    ssize_t ignored = ::write(wake_pipe_[1], &byte, 1);
    (void)ignored;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(connections_);
  }
  // In-flight requests run on their connection threads, and with the
  // accept loop gone nothing watches their sockets: fire every token so
  // guarded work exits promptly, and unblock every recv.
  for (auto& conn : conns) {
    conn->cancel.Cancel();
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  RTP_LOG(INFO) << "rtpd stopped (" << options_.socket_path << ")";
}

void Server::Drain(int grace_ms) {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    Stop();
    return;
  }
  RTP_OBS_COUNT("serve.drain.started");
  RTP_LOG(INFO) << "rtpd draining (" << options_.socket_path << ", grace "
                << grace_ms << "ms)";
  // New connects must fail immediately: removing the path leaves existing
  // connections (and anything already in the listen backlog) untouched
  // while clients attempting fresh connects get a structured UNAVAILABLE.
  ::unlink(options_.socket_path.c_str());
  int64_t deadline_ns =
      guard::MonotonicNowNs() + int64_t{grace_ms} * 1'000'000;
  while (guard::MonotonicNowNs() < deadline_ns) {
    bool any_live = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& conn : connections_) {
        if (!conn->done.load(std::memory_order_acquire)) {
          any_live = true;
          break;
        }
      }
    }
    if (!any_live) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : connections_) {
      if (!conn->done.load(std::memory_order_acquire)) {
        // Grace expired with work still in flight; Stop() below severs it.
        RTP_OBS_COUNT("serve.drain.forced");
        break;
      }
    }
  }
  Stop();
  RTP_OBS_COUNT("serve.drain.completed");
}

bool Server::Admit(int64_t* retry_after_ms) {
  const int jobs = std::max(1, options_.jobs);
  std::unique_lock<std::mutex> lock(gate_mu_);
  // queue_capacity == 0 is the degenerate "always shed" configuration.
  if (options_.queue_capacity == 0 ||
      (executing_ >= jobs && waiting_ >= options_.queue_capacity)) {
    *retry_after_ms = std::min<int64_t>(static_cast<int64_t>(waiting_) + 1,
                                        options_.max_retry_after_ms);
    return false;
  }
  ++waiting_;
  gate_cv_.wait(lock, [this, jobs] { return executing_ < jobs; });
  --waiting_;
  ++executing_;
  return true;
}

void Server::Release() {
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    --executing_;
  }
  gate_cv_.notify_one();
}

void Server::AcceptLoop() {
  std::vector<struct pollfd> fds;
  std::vector<Connection*> watched;
  while (true) {
    // Slots 0 and 1 are the listener and the wake pipe; the rest watch the
    // busy connections whose tokens have not fired yet.
    fds.assign({{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}});
    watched.clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& conn : connections_) {
        if (conn->busy.load(std::memory_order_acquire) &&
            !conn->cancel.cancelled()) {
          fds.push_back({conn->fd, POLLRDHUP, 0});
          watched.push_back(conn.get());
        }
      }
    }
    if (::poll(fds.data(), fds.size(), kWatchTickMs) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_) break;
    }
    // A peer that hangs up mid-request cancels the connection token, and
    // every guard wired to it trips, so abandoned work drains instead of
    // running to the bitter end.
    for (size_t i = 0; i < watched.size(); ++i) {
      if ((fds[i + 2].revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0) {
        watched[i]->cancel.Cancel();
      }
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_requested_) {
        ::close(fd);
        break;
      }
      // Reap connections whose threads already finished, so a long-lived
      // server does not accumulate dead fds/threads.
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          ::close((*it)->fd);
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
      connections_.push_back(std::move(conn));
      // Spawned under the lock so Stop()'s swap always observes a
      // joinable thread for every registered connection.
      raw->thread = std::thread([this, raw] { ServeConnection(raw); });
      RTP_OBS_GAUGE_SET("serve.connections.active", connections_.size());
    }
    RTP_OBS_COUNT("serve.connections.accepted");
  }
}

void Server::ServeConnection(Connection* conn) {
  // Framing is tolerant of arbitrarily torn input: bytes arrive in any
  // chunking (tests split one request across many delayed writes) and the
  // framer reassembles complete lines, bounding memory for oversized ones.
  LineFramer framer(options_.max_line_bytes);
  bool alive = true;
  char chunk[kReadChunkBytes];
  int64_t last_activity_ns = guard::MonotonicNowNs();
  while (alive) {
    while (alive) {
      std::optional<LineFramer::Line> line = framer.Next();
      if (!line.has_value()) break;
      if (line->oversized) {
        RTP_OBS_COUNT("serve.errors.oversized");
        alive = SendLine(
            conn->fd,
            MakeErrorResponse(
                0, ResourceExhaustedError(
                       "request line exceeds " +
                       std::to_string(options_.max_line_bytes) + " bytes"))
                .Serialize());
        continue;
      }
      std::string response = HandleLine(conn, line->text);
      if (response.empty()) continue;  // reply already sent (shutdown)
      alive = SendLine(conn->fd, response);
      last_activity_ns = guard::MonotonicNowNs();
    }
    if (!alive) break;
    // Block with a tick so the thread notices drain and idle timeouts
    // even when the peer sends nothing.
    struct pollfd p;
    p.fd = conn->fd;
    p.events = POLLIN | POLLRDHUP;
    p.revents = 0;
    int ready = ::poll(&p, 1, 50);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      // Idle tick. A draining server closes connections with nothing
      // buffered (in-flight requests already finished above).
      if (draining_.load(std::memory_order_acquire) &&
          !framer.HasBufferedData()) {
        break;
      }
      if (options_.idle_timeout_ms > 0 &&
          guard::MonotonicNowNs() - last_activity_ns >
              int64_t{options_.idle_timeout_ms} * 1'000'000) {
        RTP_OBS_COUNT("serve.connections.idle_reaped");
        break;
      }
      continue;
    }
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // disconnect, error, or Stop()'s shutdown()
    framer.Feed(std::string_view(chunk, static_cast<size_t>(n)));
    last_activity_ns = guard::MonotonicNowNs();
  }
  // The fd itself is closed by the acceptor's reap (or Stop), but the
  // peer must see EOF now — an idle-reaped or drained connection would
  // otherwise look alive until the next accept.
  ::shutdown(conn->fd, SHUT_RDWR);
  RTP_OBS_COUNT("serve.connections.closed");
  conn->done.store(true, std::memory_order_release);
}

std::string Server::HandleLine(Connection* conn, const std::string& line) {
  int64_t arrival_ns = guard::MonotonicNowNs();
  auto parsed_or = JsonValue::Parse(line);
  if (!parsed_or.ok()) {
    RTP_OBS_COUNT("serve.errors.protocol");
    return MakeErrorResponse(0, parsed_or.status()).Serialize();
  }
  // Echo the id even for requests that fail validation, as long as the
  // line was at least JSON with a numeric id.
  int64_t fallback_id =
      parsed_or->is_object() ? parsed_or->FindInt("id") : 0;
  auto req_or = DecodeRequest(*parsed_or);
  if (!req_or.ok()) {
    RTP_OBS_COUNT("serve.errors.protocol");
    return MakeErrorResponse(fallback_id, req_or.status()).Serialize();
  }
  Request req = std::move(req_or).value();
  CountOp(req.op);

  JsonValue response;
  if (req.op == "stats") {
    response = HandleStats(req);
  } else if (req.op == "shutdown") {
    // Reply before raising the stop flag: once Stop() runs it shuts this
    // socket down, so the acknowledgement must already be in flight.
    response = MakeOkResponse(req.id);
    response.Add("stopping", JsonValue::Bool(true));
    SendLine(conn->fd, response.Serialize());
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
    stop_cv_.notify_all();
    return std::string();
  } else if (req.op == "drop" || req.op == "quota") {
    // Registry-only ops: cheap enough to skip the admission gate.
    response = HandleRequest(conn, req, arrival_ns);
  } else {
    // Heavy ops run on this thread once the admission gate lets them
    // through; a full gate sheds the request.
    conn->busy.store(true, std::memory_order_release);
    int64_t retry_after_ms = 0;
    if (Admit(&retry_after_ms)) {
      // An exception from a heavy op (std::bad_alloc on a huge document,
      // say) answers this request with INTERNAL instead of ending the
      // daemon through its connection thread.
      try {
        response = HandleRequest(conn, req, arrival_ns);
      } catch (const std::exception& e) {
        RTP_OBS_COUNT("serve.errors.request");
        response = MakeErrorResponse(
            req.id, InternalError(std::string("request failed: ") + e.what()));
      }
      Release();
    } else {
      RTP_OBS_COUNT("serve.requests.shed");
      response = MakeShedResponse(req.id, retry_after_ms);
    }
    conn->busy.store(false, std::memory_order_release);
  }
  RTP_OBS_HISTOGRAM_RECORD("serve.request_ns",
                           guard::MonotonicNowNs() - arrival_ns);
  return response.Serialize();
}

JsonValue Server::HandleRequest(Connection* conn, const Request& req,
                                int64_t arrival_ns) {
  std::shared_ptr<Tenant> tenant;
  if (req.op == "load" || req.op == "quota") {
    tenant = tenants_.GetOrCreate(req.tenant);
  } else {
    tenant = tenants_.Find(req.tenant);
    if (tenant == nullptr) {
      RTP_OBS_COUNT("serve.errors.request");
      return MakeErrorResponse(
          req.id, NotFoundError("unknown tenant '" + req.tenant + "'"));
    }
  }
  tenant->requests.fetch_add(1, std::memory_order_relaxed);
  tenant->m_requests->Add(1);

  guard::ExecutionBudget budget = req.budget;
  if (!req.has_budget) {
    std::lock_guard<std::mutex> lock(tenant->mu);
    budget = tenant->default_budget.Limited() ? tenant->default_budget
                                              : options_.default_budget;
  }

  JsonValue response;
  if (req.op == "load") {
    response = HandleLoad(*tenant, req, budget, &conn->cancel, arrival_ns);
  } else if (req.op == "eval") {
    response = HandleEval(*tenant, req, budget, &conn->cancel, arrival_ns);
  } else if (req.op == "checkfd") {
    response = HandleCheckFd(*tenant, req, budget, &conn->cancel, arrival_ns);
  } else if (req.op == "matrix") {
    response = HandleMatrix(*tenant, req, budget, &conn->cancel);
  } else if (req.op == "drop") {
    response = HandleDrop(*tenant, req);
  } else if (req.op == "quota") {
    response = HandleQuota(*tenant, req);
  } else {
    response = MakeErrorResponse(req.id, InternalError("unroutable op"));
  }

  const JsonValue* ok = response.Find("ok");
  if (ok != nullptr && ok->is_bool() && !ok->bool_value()) {
    tenant->errors.fetch_add(1, std::memory_order_relaxed);
    tenant->m_errors->Add(1);
    const JsonValue* error = response.Find("error");
    StatusCode code = error != nullptr
                          ? StatusCodeFromName(error->FindString("code"))
                          : StatusCode::kInternal;
    if (guard::IsResourceCode(code)) {
      tenant->trips.fetch_add(1, std::memory_order_relaxed);
      tenant->m_trips->Add(1);
      RTP_OBS_COUNT("serve.trips");
    } else {
      RTP_OBS_COUNT("serve.errors.request");
    }
  }
  return response;
}

JsonValue Server::HandleLoad(Tenant& tenant, const Request& req,
                             const guard::ExecutionBudget& budget,
                             guard::CancelToken* cancel, int64_t arrival_ns) {
  if (req.doc.empty() || req.text.empty()) {
    return MakeErrorResponse(
        req.id, InvalidArgumentError("load requires 'doc' and 'text'"));
  }
  obs::QueryProfile profile;
  Status status;
  std::shared_ptr<CorpusEntry> entry;
  {
    // Parsing interns into the self-locking tenant alphabet. The lazy
    // Document caches (preorder index, Snapshot) are warmed here, before
    // the entry is published, so no reader ever fills them.
    guard::GuardContext ctx(budget, cancel, arrival_ns);
    guard::ScopedGuard scope(&ctx);
    obs::ProfileScope prof("serve.load", req.profile ? &profile : nullptr);
    auto doc_or = xml::ParseXml(&tenant.alphabet, req.text);
    if (!doc_or.ok()) {
      status = doc_or.status();
    } else {
      auto doc = std::make_unique<xml::Document>(std::move(doc_or).value());
      doc->PreorderIndex(doc->root());
      std::shared_ptr<const xml::DocIndex> index = doc->Snapshot();
      status = guard::CurrentStatus();
      if (status.ok()) {
        entry = std::make_shared<CorpusEntry>();
        entry->name = req.doc;
        entry->live_nodes = doc->LiveNodeCount();
        entry->index = std::move(index);
        entry->doc = std::move(doc);
      }
    }
  }
  if (!status.ok()) {
    JsonValue response = MakeErrorResponse(req.id, status);
    if (req.profile) AttachProfile(&response, profile);
    return response;
  }
  const size_t live_nodes = entry->live_nodes;
  // Publishing replaces any previous entry of that name; the old one is
  // freed outside the lock (or by its last reader).
  std::shared_ptr<const CorpusEntry> previous;
  {
    std::lock_guard<std::mutex> lock(tenant.mu);
    previous = std::exchange(tenant.docs[req.doc], std::move(entry));
  }
  JsonValue response = MakeOkResponse(req.id);
  response.Add("doc", JsonValue::String(req.doc));
  response.Add("nodes", JsonValue::Int(static_cast<int64_t>(live_nodes)));
  if (req.profile) AttachProfile(&response, profile);
  return response;
}

JsonValue Server::HandleEval(Tenant& tenant, const Request& req,
                             const guard::ExecutionBudget& budget,
                             guard::CancelToken* cancel, int64_t arrival_ns) {
  if (req.doc.empty() || req.text.empty()) {
    return MakeErrorResponse(
        req.id, InvalidArgumentError("eval requires 'doc' and 'text'"));
  }
  std::shared_ptr<const CorpusEntry> entry = FindDoc(tenant, req.doc);
  if (entry == nullptr) return MissingDocResponse(tenant, req);
  auto parsed = pattern::ParsePattern(&tenant.alphabet, req.text);
  if (!parsed.ok()) return MakeErrorResponse(req.id, parsed.status());

  obs::QueryProfile profile;
  JsonValue response;
  {
    // Evaluation and serialization read only the frozen index and the
    // names of ids already interned, so they take no lock.
    guard::GuardContext ctx(budget, cancel, arrival_ns);
    guard::ScopedGuard scope(&ctx);
    auto tuples = pattern::EvaluateSelected(parsed->pattern,
                                            *entry->index,
                                            req.profile ? &profile : nullptr);
    Status status = guard::CurrentStatus();
    if (!status.ok()) {
      JsonValue response = MakeErrorResponse(req.id, status);
      if (req.profile) AttachProfile(&response, profile);
      return response;
    }
    // Document order, then subtree serialization — the exact output
    // contract of `rtp_cli eval`, so serve results are bit-comparable to
    // serial library runs.
    const xml::Document& doc = entry->index->doc();
    std::sort(tuples.begin(), tuples.end(),
              [&doc](const std::vector<xml::NodeId>& a,
                     const std::vector<xml::NodeId>& b) {
                for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                  uint32_t pa = doc.PreorderIndex(a[i]);
                  uint32_t pb = doc.PreorderIndex(b[i]);
                  if (pa != pb) return pa < pb;
                }
                return a.size() < b.size();
              });
    response = MakeEvalResponse(req.id, doc, tuples);
  }
  if (req.profile) AttachProfile(&response, profile);
  return response;
}

JsonValue Server::HandleCheckFd(Tenant& tenant, const Request& req,
                                const guard::ExecutionBudget& budget,
                                guard::CancelToken* cancel,
                                int64_t arrival_ns) {
  if (req.doc.empty() || req.text.empty()) {
    return MakeErrorResponse(
        req.id, InvalidArgumentError("checkfd requires 'doc' and 'text'"));
  }
  std::shared_ptr<const CorpusEntry> entry = FindDoc(tenant, req.doc);
  if (entry == nullptr) return MissingDocResponse(tenant, req);
  auto parsed = pattern::ParsePattern(&tenant.alphabet, req.text);
  if (!parsed.ok()) return MakeErrorResponse(req.id, parsed.status());
  auto fd_or = fd::FunctionalDependency::FromParsed(std::move(parsed).value());
  if (!fd_or.ok()) return MakeErrorResponse(req.id, fd_or.status());
  const fd::FunctionalDependency& fd = fd_or.value();

  obs::QueryProfile profile;
  fd::CheckResult result;
  std::string violation_text;
  {
    // The ambient request guard (arrival-anchored deadline, shared cancel
    // token) covers the check; CheckOptions deliberately carries no
    // budget, so CheckFd's own guard scope stays disengaged and its
    // result.status surfaces this guard's trip.
    guard::GuardContext ctx(budget, cancel, arrival_ns);
    guard::ScopedGuard scope(&ctx);
    fd::CheckOptions options;
    options.profile = req.profile ? &profile : nullptr;
    result = fd::CheckFd(fd, *entry->index, options);
    if (result.status.ok() && !result.satisfied) {
      violation_text = result.violation->Describe(entry->index->doc(), fd);
    }
  }
  if (!result.status.ok()) {
    JsonValue response = MakeErrorResponse(req.id, result.status);
    if (req.profile) AttachProfile(&response, profile);
    return response;
  }
  JsonValue response = MakeOkResponse(req.id);
  response.Add("satisfied", JsonValue::Bool(result.satisfied));
  response.Add("mappings",
               JsonValue::Int(static_cast<int64_t>(result.num_mappings)));
  response.Add("groups",
               JsonValue::Int(static_cast<int64_t>(result.num_groups)));
  if (!result.satisfied) {
    response.Add("violation", JsonValue::String(violation_text));
  }
  if (req.profile) AttachProfile(&response, profile);
  return response;
}

JsonValue Server::HandleMatrix(Tenant& tenant, const Request& req,
                               const guard::ExecutionBudget& budget,
                               guard::CancelToken* cancel) {
  if (req.fds.empty() || req.classes.empty()) {
    return MakeErrorResponse(
        req.id,
        InvalidArgumentError("matrix requires 'fds' and 'classes' arrays"));
  }
  std::vector<fd::FunctionalDependency> fds;
  std::vector<update::UpdateClass> classes;
  std::optional<schema::Schema> schema;
  for (const std::string& text : req.fds) {
    auto parsed = pattern::ParsePattern(&tenant.alphabet, text);
    if (!parsed.ok()) return MakeErrorResponse(req.id, parsed.status());
    auto fd_or = fd::FunctionalDependency::FromParsed(std::move(parsed).value());
    if (!fd_or.ok()) return MakeErrorResponse(req.id, fd_or.status());
    fds.push_back(std::move(fd_or).value());
  }
  for (const std::string& text : req.classes) {
    auto parsed = pattern::ParsePattern(&tenant.alphabet, text);
    if (!parsed.ok()) return MakeErrorResponse(req.id, parsed.status());
    auto cls_or = update::UpdateClass::FromParsed(std::move(parsed).value());
    if (!cls_or.ok()) return MakeErrorResponse(req.id, cls_or.status());
    classes.push_back(std::move(cls_or).value());
  }
  if (!req.schema.empty()) {
    auto schema_or = schema::Schema::Parse(&tenant.alphabet, req.schema);
    if (!schema_or.ok()) return MakeErrorResponse(req.id, schema_or.status());
    schema.emplace(std::move(schema_or).value());
  }

  std::vector<const fd::FunctionalDependency*> fd_ptrs;
  fd_ptrs.reserve(fds.size());
  for (const auto& fd : fds) fd_ptrs.push_back(&fd);
  std::vector<const update::UpdateClass*> class_ptrs;
  class_ptrs.reserve(classes.size());
  for (const auto& cls : classes) class_ptrs.push_back(&cls);

  std::vector<obs::QueryProfile> cell_profiles;
  independence::MatrixOptions options;
  if (budget.Limited()) {
    // Budgeted: per-pair guards, per-cell degradation, and the shared
    // cancel token. The criterion bypasses the shared AutomatonCache
    // under a guard (a tripped build must never be memoized), so the
    // cache stays warm and un-poisoned for unbudgeted requests.
    options.budget = budget;
    options.cancel = cancel;
  } else {
    // Unbudgeted: run against the process-wide warm cache. No cancel
    // token — wiring one would force the cache bypass and cost every
    // fast request its warm automata to support a rare disconnect.
    options.cache = &exec::AutomatonCache::Global();
  }
  if (req.profile) options.profiles = &cell_profiles;
  auto matrix_or = independence::ComputeIndependenceMatrix(
      fd_ptrs, class_ptrs, schema ? &*schema : nullptr, &tenant.alphabet,
      options);
  if (!matrix_or.ok()) return MakeErrorResponse(req.id, matrix_or.status());
  const independence::IndependenceMatrix& matrix = matrix_or.value();

  size_t independent = 0;
  size_t tripped = 0;
  JsonValue entries = JsonValue::Array();
  for (const independence::MatrixEntry& entry : matrix.entries) {
    JsonValue cell = JsonValue::Object();
    cell.Add("fd", JsonValue::Int(static_cast<int64_t>(entry.fd_index)));
    cell.Add("class",
             JsonValue::Int(static_cast<int64_t>(entry.class_index)));
    cell.Add("independent", JsonValue::Bool(entry.independent));
    cell.Add("product_size", JsonValue::Int(entry.product_size));
    if (!entry.status.ok()) {
      cell.Add("status",
               JsonValue::String(StatusCodeName(entry.status.code())));
      ++tripped;
    }
    if (entry.independent) ++independent;
    entries.Push(std::move(cell));
  }
  if (tripped > 0) {
    // Per-cell resource degradation: the response is still ok (tripped
    // cells carry the conservative not-independent verdict), but the
    // trips are tallied like request-level ones.
    tenant.trips.fetch_add(tripped, std::memory_order_relaxed);
    tenant.m_trips->Add(tripped);
    RTP_OBS_COUNT_N("serve.trips", tripped);
  }

  JsonValue response = MakeOkResponse(req.id);
  response.Add("num_fds",
               JsonValue::Int(static_cast<int64_t>(matrix.num_fds)));
  response.Add("num_classes",
               JsonValue::Int(static_cast<int64_t>(matrix.num_classes)));
  response.Add("independent",
               JsonValue::Int(static_cast<int64_t>(independent)));
  response.Add("entries", std::move(entries));
  if (req.profile) {
    JsonValue profiles = JsonValue::Array();
    for (const obs::QueryProfile& p : cell_profiles) {
      auto parsed = JsonValue::Parse(p.ToJson());
      profiles.Push(parsed.ok() ? std::move(parsed).value()
                                : JsonValue::Null());
    }
    response.Add("profiles", std::move(profiles));
  }
  return response;
}

JsonValue Server::HandleStats(const Request& req) {
  JsonValue response = MakeOkResponse(req.id);
  JsonValue tenants = JsonValue::Array();
  for (const std::shared_ptr<Tenant>& tenant : tenants_.All()) {
    JsonValue t = JsonValue::Object();
    t.Add("name", JsonValue::String(tenant->name));
    size_t num_docs;
    {
      std::lock_guard<std::mutex> lock(tenant->mu);
      num_docs = tenant->docs.size();
    }
    t.Add("docs", JsonValue::Int(static_cast<int64_t>(num_docs)));
    t.Add("requests", JsonValue::Int(static_cast<int64_t>(
                          tenant->requests.load(std::memory_order_relaxed))));
    t.Add("errors", JsonValue::Int(static_cast<int64_t>(
                        tenant->errors.load(std::memory_order_relaxed))));
    t.Add("trips", JsonValue::Int(static_cast<int64_t>(
                       tenant->trips.load(std::memory_order_relaxed))));
    tenants.Push(std::move(t));
  }
  response.Add("tenants", std::move(tenants));
  if (req.metrics) {
    auto parsed = JsonValue::Parse(obs::DumpJson());
    response.Add("metrics", parsed.ok() ? std::move(parsed).value()
                                        : JsonValue::Null());
  }
  return response;
}

JsonValue Server::HandleDrop(Tenant& tenant, const Request& req) {
  if (req.doc.empty()) {
    return MakeErrorResponse(req.id,
                             InvalidArgumentError("drop requires 'doc'"));
  }
  // The extracted entry is freed outside the lock (or by its last reader).
  decltype(tenant.docs)::node_type dropped;
  {
    std::lock_guard<std::mutex> lock(tenant.mu);
    dropped = tenant.docs.extract(req.doc);
  }
  JsonValue response = MakeOkResponse(req.id);
  response.Add("dropped", JsonValue::Bool(!dropped.empty()));
  return response;
}

JsonValue Server::HandleQuota(Tenant& tenant, const Request& req) {
  if (!req.has_budget) {
    return MakeErrorResponse(
        req.id, InvalidArgumentError("quota requires a 'budget' object"));
  }
  {
    std::lock_guard<std::mutex> lock(tenant.mu);
    tenant.default_budget = req.budget;
  }
  JsonValue response = MakeOkResponse(req.id);
  JsonValue budget = JsonValue::Object();
  budget.Add("deadline_ms", JsonValue::Int(req.budget.deadline_ms));
  budget.Add("max_states", JsonValue::Int(req.budget.max_automaton_states));
  budget.Add("max_steps", JsonValue::Int(req.budget.max_steps));
  budget.Add("max_memory_mb",
             JsonValue::Int(req.budget.max_memory_bytes >> 20));
  response.Add("budget", std::move(budget));
  return response;
}

}  // namespace rtp::serve
