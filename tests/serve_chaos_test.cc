// Chaos battery for the serving stack (label `serve`; joins the TSan CI
// leg): seeded fault injection through the resilient serve::Client
// against an in-process Server. The load-bearing properties, in the
// order docs/ROBUSTNESS.md states them:
//
//   * No hangs: every call under injected faults returns within its
//     wall-clock deadline, as a result or a structured Status.
//   * No collateral damage: the daemon survives every fault schedule and
//     stays responsive to a clean client afterwards.
//   * Determinism: the same (spec, chaos seed, threads) triple reproduces
//     identical per-op fault-injection counts — the property the chaos
//     CI leg checks by diffing two rtp_load --counts-out files.
//
// LineFramer unit + torn-wire coverage lives here too, next to the chaos
// machinery that motivates it.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "guard/guard.h"
#include "serve/client.h"
#include "serve/framing.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace rtp::serve {
namespace {

std::string TempSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/rtp_chaos_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

struct TestServer {
  std::string socket_path;
  std::unique_ptr<Server> server;
};

TestServer StartTestServer(ServerOptions options = {}) {
  TestServer ts;
  ts.socket_path = TempSocketPath();
  options.socket_path = ts.socket_path;
  auto server_or = Server::Start(options);
  EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
  if (server_or.ok()) ts.server = std::move(server_or).value();
  return ts;
}

constexpr char kTinyXml[] = "<a><b>v0</b><b>v1</b></a>";
constexpr char kTinyPattern[] = "root { a { x = b; } } select x;";

// ---------------------------------------------------------------------------
// LineFramer

TEST(LineFramerTest, SplitsLinesAndStripsCr) {
  LineFramer framer(1024);
  framer.Feed("one\r\ntwo\n\nthree");
  auto l1 = framer.Next();
  ASSERT_TRUE(l1.has_value());
  EXPECT_EQ(l1->text, "one");
  EXPECT_FALSE(l1->oversized);
  auto l2 = framer.Next();
  ASSERT_TRUE(l2.has_value());
  EXPECT_EQ(l2->text, "two");
  // The blank line is swallowed; "three" is incomplete.
  EXPECT_FALSE(framer.Next().has_value());
  EXPECT_TRUE(framer.HasBufferedData());
  framer.Feed("\n");
  auto l3 = framer.Next();
  ASSERT_TRUE(l3.has_value());
  EXPECT_EQ(l3->text, "three");
  EXPECT_FALSE(framer.HasBufferedData());
}

// The fuzzed invariant, pinned as a unit test: byte-at-a-time delivery
// yields exactly the lines whole-buffer delivery yields.
TEST(LineFramerTest, ChunkingInvariant) {
  const std::string input = "alpha\nbeta\r\n\ngamma delta\nepsilon";
  LineFramer whole(64);
  whole.Feed(input);
  LineFramer torn(64);
  std::vector<LineFramer::Line> whole_lines;
  std::vector<LineFramer::Line> torn_lines;
  while (auto line = whole.Next()) whole_lines.push_back(*line);
  for (char c : input) {
    torn.Feed(std::string_view(&c, 1));
    while (auto line = torn.Next()) torn_lines.push_back(*line);
  }
  ASSERT_EQ(whole_lines.size(), torn_lines.size());
  for (size_t i = 0; i < whole_lines.size(); ++i) {
    EXPECT_EQ(whole_lines[i].text, torn_lines[i].text);
    EXPECT_EQ(whole_lines[i].oversized, torn_lines[i].oversized);
  }
  EXPECT_EQ(whole.buffered_bytes(), torn.buffered_bytes());
}

TEST(LineFramerTest, OversizedLineYieldsOneMarkerAndBoundsMemory) {
  LineFramer framer(8);
  framer.Feed("0123456789");  // past the cap, unterminated
  auto marker = framer.Next();
  ASSERT_TRUE(marker.has_value());
  EXPECT_TRUE(marker->oversized);
  // The discarded tail must not accumulate.
  for (int i = 0; i < 1000; ++i) framer.Feed("xxxxxxxxxx");
  EXPECT_LE(framer.buffered_bytes(), 8u);
  EXPECT_FALSE(framer.Next().has_value());  // still the same oversized line
  // The next terminated line is delivered normally.
  framer.Feed("\nok\n");
  auto ok = framer.Next();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(ok->oversized);
  EXPECT_EQ(ok->text, "ok");
}

// A 1 MB line fed in 4 KB chunks, as recv() delivers it, comes back once
// and intact. Next() runs after every chunk, as in both read loops, so the
// newline search resumes 256 times over one growing buffer.
TEST(LineFramerTest, LongLineInChunksComesBackOnceIntact) {
  std::string big;
  for (size_t i = 0; i < (size_t{1} << 20); ++i) {
    big.push_back(static_cast<char>('a' + i % 26));
  }
  const std::string wire = big + "\n";
  LineFramer framer(std::numeric_limits<size_t>::max());
  std::vector<std::string> lines;
  for (size_t off = 0; off < wire.size(); off += 4096) {
    framer.Feed(std::string_view(wire).substr(off, 4096));
    while (auto line = framer.Next()) {
      EXPECT_FALSE(line->oversized);
      lines.push_back(std::move(line->text));
    }
  }
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], big);
  EXPECT_FALSE(framer.HasBufferedData());
}

// ---------------------------------------------------------------------------
// FaultPlan

chaos::ChaosConfig AllKindsConfig(uint64_t seed) {
  chaos::ChaosConfig config;
  config.seed = seed;
  config.connect_refused = 400;
  config.read_stall = 400;
  config.write_stall = 400;
  config.torn_write = 400;
  config.corrupt_byte = 400;
  config.premature_close = 400;
  config.response_delay = 400;
  config.stall_ms = 1;
  config.delay_ms = 1;
  return config;
}

TEST(FaultPlanTest, SameSeedAndStreamAgreeDrawForDraw) {
  chaos::ChaosConfig config = AllKindsConfig(7);
  chaos::FaultPlan a(config, /*stream=*/3);
  chaos::FaultPlan b(config, /*stream=*/3);
  for (int i = 0; i < 2000; ++i) {
    chaos::FaultDecision da = a.Draw();
    chaos::FaultDecision db = b.Draw();
    EXPECT_EQ(static_cast<int>(da.kind), static_cast<int>(db.kind));
    EXPECT_EQ(da.detail, db.detail);
  }
  EXPECT_EQ(a.counts(), b.counts());
  EXPECT_EQ(a.injected(), b.injected());
  // 2000 draws at 2800 bp inject ~560 faults; all seven kinds must fire.
  EXPECT_GT(a.injected(), 100u);
  for (int kind = 1; kind < chaos::kNumFaultKinds; ++kind) {
    EXPECT_GT(a.counts()[kind], 0u)
        << chaos::FaultKindName(static_cast<chaos::FaultKind>(kind));
  }
}

TEST(FaultPlanTest, DistinctStreamsDiverge) {
  chaos::ChaosConfig config = AllKindsConfig(7);
  chaos::FaultPlan a(config, /*stream=*/0);
  chaos::FaultPlan b(config, /*stream=*/1);
  int differing = 0;
  for (int i = 0; i < 500; ++i) {
    if (a.Draw().kind != b.Draw().kind) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlanTest, DefaultPlanNeverFires) {
  chaos::FaultPlan plan;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(plan.Draw().none());
  EXPECT_EQ(plan.injected(), 0u);
}

TEST(FaultPlanTest, RatesPastTenThousandAreRejected) {
  chaos::ChaosConfig config;
  config.connect_refused = 6000;
  config.read_stall = 5000;
  EXPECT_FALSE(config.Validate().ok());
  config.read_stall = 4000;
  EXPECT_TRUE(config.Validate().ok());
}

// ---------------------------------------------------------------------------
// Resilient client vs injected faults

ClientOptions ResilientOptions(int max_attempts = 3) {
  ClientOptions options;
  options.call_timeout_ms = 2000;
  options.retry.max_attempts = max_attempts;
  options.retry.initial_backoff_ms = 1;
  options.retry.max_backoff_ms = 5;
  return options;
}

chaos::FaultDecision Fault(chaos::FaultKind kind, uint32_t stall_ms = 1) {
  chaos::FaultDecision fault;
  fault.kind = kind;
  fault.stall_ms = stall_ms;
  fault.delay_ms = 1;
  // detail 0 pins the fault shape: corruption hits the opening '{' (the
  // request is guaranteed unparseable, so recovery is via retry, not a
  // semantic op error) and torn writes use two pieces.
  fault.detail = 0;
  return fault;
}

Request EvalRequest() {
  Request req;
  req.op = "eval";
  req.tenant = "chaos";
  req.doc = "d";
  req.text = kTinyPattern;
  return req;
}

class ClientChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ts_ = StartTestServer();
    ASSERT_NE(ts_.server, nullptr);
    auto client_or = Client::Connect(ts_.socket_path, ResilientOptions());
    ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
    client_ = std::make_unique<Client>(std::move(client_or).value());
    ASSERT_TRUE(client_->Load("chaos", "d", kTinyXml).ok());
  }

  void TearDown() override {
    client_.reset();
    if (ts_.server != nullptr) ts_.server->Stop();
  }

  TestServer ts_;
  std::unique_ptr<Client> client_;
};

// Every failing fault kind on an idempotent op: the retry machinery must
// recover (the server is healthy, only the injected attempt fails).
TEST_F(ClientChaosTest, IdempotentCallsRecoverFromEveryFailingKind) {
  const chaos::FaultKind failing[] = {
      chaos::FaultKind::kConnectRefused,
      chaos::FaultKind::kReadStall,
      chaos::FaultKind::kCorruptByte,
      chaos::FaultKind::kPrematureClose,
  };
  uint64_t retries_before = client_->retries();
  for (chaos::FaultKind kind : failing) {
    auto result = client_->Call(EvalRequest(), Fault(kind));
    EXPECT_TRUE(result.ok()) << chaos::FaultKindName(kind) << ": "
                             << result.status().ToString();
  }
  // kReadStall's first attempt burns its socket-timeout share of the
  // deadline, so just require that retries happened at all.
  EXPECT_GE(client_->retries(), retries_before + 4);
  EXPECT_GE(client_->reconnects(), 1u);
}

// Benign kinds perturb framing/timing but the single attempt succeeds.
TEST_F(ClientChaosTest, BenignKindsSucceedWithoutRetry) {
  const chaos::FaultKind benign[] = {
      chaos::FaultKind::kTornWrite,
      chaos::FaultKind::kWriteStall,
      chaos::FaultKind::kResponseDelay,
  };
  for (chaos::FaultKind kind : benign) {
    uint64_t retries_before = client_->retries();
    auto result = client_->Call(EvalRequest(), Fault(kind));
    EXPECT_TRUE(result.ok()) << chaos::FaultKindName(kind) << ": "
                             << result.status().ToString();
    EXPECT_EQ(client_->retries(), retries_before)
        << chaos::FaultKindName(kind);
  }
}

// Non-idempotent ops surface the transport failure instead of retrying:
// a duplicated load/drop/quota would repeat the side effect.
TEST_F(ClientChaosTest, NonIdempotentOpsAreNeverRetried) {
  uint64_t retries_before = client_->retries();
  Request req;
  req.op = "load";
  req.tenant = "chaos";
  req.doc = "d2";
  req.text = kTinyXml;
  auto result = client_->Call(std::move(req),
                              Fault(chaos::FaultKind::kPrematureClose));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
  EXPECT_EQ(client_->retries(), retries_before);
  // The connection is broken but the *client* recovers on the next call.
  auto stats = client_->Stats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

TEST_F(ClientChaosTest, RetriesExhaustToStructuredStatus) {
  auto client_or = Client::Connect(ts_.socket_path, ResilientOptions(2));
  ASSERT_TRUE(client_or.ok());
  Client client = std::move(client_or).value();
  // Both attempts fail: the injected fault breaks the first, then we stop
  // the server so the retry cannot reconnect.
  ts_.server->Stop();
  auto result = client.Call(EvalRequest(),
                            Fault(chaos::FaultKind::kPrematureClose));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
}

// A server that accepts but never answers: the call must come back as
// UNAVAILABLE within the configured deadline, not hang the thread.
TEST(ClientDeadlineTest, SilentServerSurfacesAsUnavailableNotAHang) {
  std::string path = TempSocketPath();
  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  std::atomic<bool> stop{false};
  std::thread accepter([listen_fd, &stop] {
    std::vector<int> fds;
    while (!stop.load()) {
      pollfd p{listen_fd, POLLIN, 0};
      if (::poll(&p, 1, 50) > 0) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) fds.push_back(fd);  // accept, then stay silent
      }
    }
    for (int fd : fds) ::close(fd);
  });

  ClientOptions options;
  options.call_timeout_ms = 300;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 1;
  options.retry.max_backoff_ms = 2;
  auto client_or = Client::Connect(path, options);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  Client client = std::move(client_or).value();

  int64_t start_ns = guard::MonotonicNowNs();
  auto result = client.Call(EvalRequest());
  int64_t elapsed_ms = (guard::MonotonicNowNs() - start_ns) / 1000000;
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
  // One deadline's worth of waiting plus scheduling slack — far below a
  // hang, and the retry loop must not restart the clock.
  EXPECT_LT(elapsed_ms, 3000);

  stop.store(true);
  accepter.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
}

TEST(ClientChaosConnectTest, ConnectToMissingSocketIsUnavailable) {
  auto client_or =
      Client::Connect("/tmp/rtp_chaos_no_such_socket.sock", ResilientOptions());
  ASSERT_FALSE(client_or.ok());
  EXPECT_EQ(client_or.status().code(), StatusCode::kUnavailable)
      << client_or.status().ToString();
}

// ---------------------------------------------------------------------------
// Overload: shed responses carry retry_after_ms and the client honors it.

TEST(OverloadTest, AlwaysShedServerYieldsResourceExhaustedWithHint) {
  ServerOptions options;
  options.queue_capacity = 0;  // degenerate always-shed config
  options.jobs = 1;
  TestServer ts = StartTestServer(options);
  ASSERT_NE(ts.server, nullptr);

  auto client_or = Client::Connect(ts.socket_path, ResilientOptions(2));
  ASSERT_TRUE(client_or.ok());
  Client client = std::move(client_or).value();

  uint64_t retries_before = client.retries();
  auto result = client.Call(EvalRequest());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  // The shed carried a retry hint, so the idempotent eval was retried
  // (and shed again) before the error surfaced.
  EXPECT_EQ(client.retries(), retries_before + 1);

  // stats skips the admission gate: still answered.
  auto stats = client.Stats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  ts.server->Stop();
}

TEST(OverloadTest, ShedResponseWireShapeCarriesRetryAfterMs) {
  JsonValue shed = MakeShedResponse(7, 42);
  EXPECT_EQ(ResponseRetryAfterMs(shed), 42);
  Status status = ResponseStatus(shed);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // Budget trips share the code but never the hint.
  JsonValue trip = MakeErrorResponse(
      7, ResourceExhaustedError("step budget exceeded"));
  EXPECT_EQ(ResponseRetryAfterMs(trip), 0);
}

// ---------------------------------------------------------------------------
// Torn wire input against the real server

TEST(TornWireTest, RequestSplitAcrossManyWritesGetsOneResponse) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  auto client_or = Client::Connect(ts.socket_path, ResilientOptions());
  ASSERT_TRUE(client_or.ok());
  Client client = std::move(client_or).value();

  Request req = EvalRequest();
  req.op = "stats";
  req.id = 99;
  std::string line = EncodeRequest(req).Serialize();
  // Dribble the request a few bytes at a time with real pauses.
  for (size_t i = 0; i < line.size(); i += 5) {
    ASSERT_EQ(::send(client.fd(), line.data() + i,
                     std::min<size_t>(5, line.size() - i), MSG_NOSIGNAL),
              static_cast<ssize_t>(std::min<size_t>(5, line.size() - i)));
    chaos::SleepMs(1);
  }
  ASSERT_EQ(::send(client.fd(), "\n", 1, MSG_NOSIGNAL), 1);
  auto response_line = client.ReadLine();
  ASSERT_TRUE(response_line.ok()) << response_line.status().ToString();
  auto response = JsonValue::Parse(*response_line);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->FindInt("id"), 99);
  EXPECT_TRUE(ResponseStatus(*response).ok());
  ts.server->Stop();
}

// ---------------------------------------------------------------------------
// Server-side degradation: idle reap and graceful drain

TEST(ServerDegradationTest, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  TestServer ts = StartTestServer(options);
  ASSERT_NE(ts.server, nullptr);
  auto client_or = Client::Connect(ts.socket_path, ResilientOptions());
  ASSERT_TRUE(client_or.ok());
  Client client = std::move(client_or).value();

  // Stay silent past the idle timeout: the server closes the connection.
  pollfd p{client.fd(), POLLIN, 0};
  int rv = ::poll(&p, 1, 2000);
  ASSERT_EQ(rv, 1) << "connection was not reaped within 2s";
  char byte;
  EXPECT_EQ(::recv(client.fd(), &byte, 1, 0), 0);  // clean EOF

  // The reap is per-connection: a fresh, active client is served.
  auto fresh_or = Client::Connect(ts.socket_path, ResilientOptions());
  ASSERT_TRUE(fresh_or.ok());
  Client fresh = std::move(fresh_or).value();
  EXPECT_TRUE(fresh.Stats().ok());
  ts.server->Stop();
}

TEST(ServerDegradationTest, DrainStopsAcceptingAndCompletes) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  auto client_or = Client::Connect(ts.socket_path, ResilientOptions());
  ASSERT_TRUE(client_or.ok());
  Client client = std::move(client_or).value();
  ASSERT_TRUE(client.Load("chaos", "d", kTinyXml).ok());

  ts.server->Drain(/*grace_ms=*/1000);

  // The socket is gone: new connects fail as UNAVAILABLE.
  auto late = Client::Connect(ts.socket_path, ResilientOptions());
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  // Idempotent: a second drain (and the destructor's Stop) are no-ops.
  ts.server->Drain(/*grace_ms=*/10);
}

// ---------------------------------------------------------------------------
// Workload integration: closed-loop traffic under a seeded fault schedule

constexpr char kChaosSpec[] = R"({
  "name": "chaos-test",
  "tenant": "chaos-test",
  "setup": {"load_doc": {"op": "load", "doc": "d", "text": "<a><b>v0</b></a>"}},
  "count": 40,
  "chaos": {
    "seed": 11,
    "connect_refused": 300,
    "read_stall": 300,
    "corrupt_byte": 300,
    "premature_close": 300,
    "response_delay": 300,
    "torn_write": 300,
    "stall_ms": 1,
    "delay_ms": 1,
    "max_attempts": 4,
    "call_timeout_ms": 2000
  },
  "mix": {
    "eval_b": {"op": "eval", "weight": 3, "doc": "d",
               "text": "root { a { x = b; } } select x;"},
    "stats": {"op": "stats", "weight": 1}
  }
})";

TEST(WorkloadChaosTest, FaultScheduleIsReproducibleAndNothingHangs) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  auto spec_or = workload::ParseWorkloadSpec(kChaosSpec, "");
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  const workload::WorkloadSpec& spec = *spec_or;
  EXPECT_TRUE(spec.chaos.enabled());

  workload::RunnerOptions options;
  options.socket_path = ts.socket_path;
  options.threads = 3;
  options.seed = 42;

  auto run1 = workload::RunWorkload(spec, options);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  auto run2 = workload::RunWorkload(spec, options);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();

  // Traffic flowed and faults actually fired (3 threads × 40 ops at
  // 1800 bp injects ~21 faults per run; the single setup load makes 121).
  EXPECT_EQ(run1->ops, 121u);
  EXPECT_GT(run1->faults_injected, 0u);
  // The whole point: per-op counts — including the fault.<kind> lines —
  // are byte-identical across same-seed runs.
  EXPECT_EQ(run1->stats.ToCountsText(), run2->stats.ToCountsText());
  EXPECT_EQ(run1->faults_injected, run2->faults_injected);
  EXPECT_NE(run1->stats.ToCountsText().find(".fault."), std::string::npos);
  // Every op either succeeded after retries or surfaced a structured
  // error; transport errors are possible (read stalls can outlast the
  // per-attempt share) but must be recorded, never hung.
  EXPECT_EQ(run1->transport_errors, run2->transport_errors);

  // The daemon survived both schedules and still answers a clean client.
  auto client_or = Client::Connect(ts.socket_path, ResilientOptions());
  ASSERT_TRUE(client_or.ok());
  Client client = std::move(client_or).value();
  EXPECT_TRUE(client.Stats().ok());
  ts.server->Stop();
}

TEST(WorkloadChaosTest, CleanSpecReportsNoFaults) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  auto spec_or = workload::ParseWorkloadSpec(R"({
    "name": "clean", "tenant": "clean", "count": 5,
    "mix": {"ping": {"op": "stats", "weight": 1}}
  })",
                                             "");
  ASSERT_TRUE(spec_or.ok()) << spec_or.status().ToString();
  workload::RunnerOptions options;
  options.socket_path = ts.socket_path;
  options.threads = 2;
  auto run = workload::RunWorkload(*spec_or, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->faults_injected, 0u);
  EXPECT_EQ(run->transport_errors, 0u);
  EXPECT_EQ(run->stats.ToCountsText().find(".fault."), std::string::npos);
  ts.server->Stop();
}

}  // namespace
}  // namespace rtp::serve
