// End-to-end battery for rtpd (src/serve): an in-process Server on a
// temp AF_UNIX socket, exercised by real Client connections. The
// concurrency tests run under -DRTP_SANITIZE=thread in CI (labels
// `exec;serve`), so keep iteration counts small but contention real.
//
// The correctness bar everywhere is bit-identity with serial library
// calls: the oracle below re-derives eval/checkfd results straight from
// pattern::EvaluateSelected / fd::CheckFd with no serve code involved.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fd/fd_checker.h"
#include "fd/functional_dependency.h"
#include "fuzz/generators.h"
#include "obs/metrics.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "serve/client.h"
#include "serve/server.h"
#include "xml/xml_io.h"

namespace rtp::serve {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string ExamXmlPath() {
  return std::string(RTP_EXAMPLES_DATA_DIR) + "/exam.xml";
}

std::string DataPath(const char* name) {
  return std::string(RTP_EXAMPLES_DATA_DIR) + "/" + name;
}

// Each test gets its own socket path; the server unlinks it on Stop().
std::string TempSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/rtp_serve_test_" + std::to_string(::getpid()) + "_" +
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

Client ConnectOrDie(const std::string& socket_path) {
  auto client_or = Client::Connect(socket_path);
  EXPECT_TRUE(client_or.ok()) << client_or.status().ToString();
  return std::move(client_or).value();
}

// Serial library oracle for eval: same sort + serialization contract the
// server (and rtp_cli) promise, derived with a private alphabet.
std::vector<std::vector<std::string>> OracleEval(
    const std::string& xml_text, const std::string& pattern_text) {
  Alphabet alphabet;
  auto doc_or = xml::ParseXml(&alphabet, xml_text);
  EXPECT_TRUE(doc_or.ok());
  xml::Document doc = std::move(doc_or).value();
  auto parsed_or = pattern::ParsePattern(&alphabet, pattern_text);
  EXPECT_TRUE(parsed_or.ok());
  auto tuples = pattern::EvaluateSelected(parsed_or->pattern, doc);
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
  std::vector<std::vector<std::string>> out;
  out.reserve(tuples.size());
  for (const auto& tuple : tuples) {
    std::vector<std::string> row;
    row.reserve(tuple.size());
    for (xml::NodeId n : tuple) {
      row.push_back(xml::WriteXmlSubtree(doc, n, /*indent=*/false));
    }
    out.push_back(std::move(row));
  }
  return out;
}

struct OracleCheckFd {
  bool satisfied;
  int64_t mappings;
  int64_t groups;
};

OracleCheckFd OracleCheck(const std::string& xml_text,
                          const std::string& fd_text) {
  Alphabet alphabet;
  auto doc_or = xml::ParseXml(&alphabet, xml_text);
  EXPECT_TRUE(doc_or.ok());
  xml::Document doc = std::move(doc_or).value();
  auto parsed_or = pattern::ParsePattern(&alphabet, fd_text);
  EXPECT_TRUE(parsed_or.ok());
  auto fd_or = fd::FunctionalDependency::FromParsed(std::move(*parsed_or));
  EXPECT_TRUE(fd_or.ok());
  fd::CheckResult result = fd::CheckFd(fd_or.value(), doc);
  EXPECT_TRUE(result.status.ok());
  return {result.satisfied, static_cast<int64_t>(result.num_mappings),
          static_cast<int64_t>(result.num_groups)};
}

TEST(ServeTest, RoundTripMatchesSerialOracle) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  Client client = ConnectOrDie(ts.socket_path);

  const std::string xml = ReadFileOrDie(ExamXmlPath());
  const std::string pattern = ReadFileOrDie(DataPath("update_u.pattern"));
  const std::string fd1 = ReadFileOrDie(DataPath("fd1.fd"));

  ASSERT_TRUE(client.Load("alpha", "exam", xml).ok());

  auto eval_or = client.Eval("alpha", "exam", pattern);
  ASSERT_TRUE(eval_or.ok()) << eval_or.status().ToString();
  EXPECT_EQ(eval_or->tuples, OracleEval(xml, pattern));

  auto check_or = client.CheckFd("alpha", "exam", fd1);
  ASSERT_TRUE(check_or.ok()) << check_or.status().ToString();
  OracleCheckFd expected = OracleCheck(xml, fd1);
  EXPECT_EQ(check_or->satisfied, expected.satisfied);
  EXPECT_EQ(check_or->mappings, expected.mappings);
  EXPECT_EQ(check_or->groups, expected.groups);

  const std::string fd5 = ReadFileOrDie(DataPath("fd5.fd"));
  const std::string schema = ReadFileOrDie(DataPath("exam.schema"));
  auto matrix_or = client.Matrix("alpha", {fd1, fd5}, {pattern}, schema);
  ASSERT_TRUE(matrix_or.ok()) << matrix_or.status().ToString();
  EXPECT_EQ(matrix_or->num_fds, 2u);
  EXPECT_EQ(matrix_or->num_classes, 1u);
  EXPECT_EQ(matrix_or->cells.size(), 2u);
  // Figure 6 of the paper: U is independent of both fd1 and fd5.
  EXPECT_EQ(matrix_or->independent, 2u);
  for (const MatrixCell& cell : matrix_or->cells) {
    EXPECT_TRUE(cell.independent);
    EXPECT_EQ(cell.status, StatusCode::kOk);
  }

  ts.server->Stop();
}

// The acceptance bar of the issue: >= 8 concurrent clients across >= 2
// tenants, mixed eval/checkfd/matrix against a shared corpus, every
// response bit-identical to the serial oracle.
TEST(ServeTest, ConcurrentClientsAreBitIdenticalToSerialOracle) {
  ServerOptions options;
  options.jobs = 4;
  TestServer ts = StartTestServer(options);
  ASSERT_NE(ts.server, nullptr);

  const std::string xml = ReadFileOrDie(ExamXmlPath());
  const std::string pattern = ReadFileOrDie(DataPath("update_u.pattern"));
  const std::string fd1 = ReadFileOrDie(DataPath("fd1.fd"));
  const std::string fd5 = ReadFileOrDie(DataPath("fd5.fd"));
  const std::string schema = ReadFileOrDie(DataPath("exam.schema"));

  const std::vector<std::string> tenants = {"alpha", "beta"};
  {
    Client loader = ConnectOrDie(ts.socket_path);
    for (const std::string& tenant : tenants) {
      ASSERT_TRUE(loader.Load(tenant, "exam", xml).ok());
    }
  }

  const auto expected_tuples = OracleEval(xml, pattern);
  const OracleCheckFd expected_fd1 = OracleCheck(xml, fd1);
  const OracleCheckFd expected_fd5 = OracleCheck(xml, fd5);

  constexpr int kClients = 8;
  constexpr int kIterations = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client_or = Client::Connect(ts.socket_path);
      if (!client_or.ok()) {
        ++failures;
        return;
      }
      Client client = std::move(client_or).value();
      const std::string& tenant = tenants[c % tenants.size()];
      for (int i = 0; i < kIterations; ++i) {
        switch ((c + i) % 3) {
          case 0: {
            auto eval_or = client.Eval(tenant, "exam", pattern);
            if (!eval_or.ok() || eval_or->tuples != expected_tuples) {
              ++failures;
            }
            break;
          }
          case 1: {
            const bool use_fd1 = (i % 2) == 0;
            auto check_or =
                client.CheckFd(tenant, "exam", use_fd1 ? fd1 : fd5);
            const OracleCheckFd& expect =
                use_fd1 ? expected_fd1 : expected_fd5;
            if (!check_or.ok() || check_or->satisfied != expect.satisfied ||
                check_or->mappings != expect.mappings ||
                check_or->groups != expect.groups) {
              ++failures;
            }
            break;
          }
          default: {
            auto matrix_or =
                client.Matrix(tenant, {fd1, fd5}, {pattern}, schema);
            if (!matrix_or.ok() || matrix_or->independent != 2 ||
                matrix_or->cells.size() != 2) {
              ++failures;
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Per-tenant accounting is deterministic: both tenants served requests,
  // none erred or tripped.
  Client client = ConnectOrDie(ts.socket_path);
  auto stats_or = client.Stats();
  ASSERT_TRUE(stats_or.ok());
  ASSERT_EQ(stats_or->size(), tenants.size());
  for (const TenantStats& t : *stats_or) {
    EXPECT_EQ(t.docs, 1);
    EXPECT_GT(t.requests, 0);
    EXPECT_EQ(t.errors, 0);
    EXPECT_EQ(t.trips, 0);
  }

  ts.server->Stop();
}

// A per-request deadline/quota trip must return a resource status for the
// offending request only: the document, the tenant, and the process-wide
// AutomatonCache all keep serving exact results afterwards.
TEST(ServeTest, BudgetTripDegradesOnlyTheOffendingRequest) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  Client client = ConnectOrDie(ts.socket_path);

  const std::string xml = ReadFileOrDie(ExamXmlPath());
  const std::string pattern = ReadFileOrDie(DataPath("update_u.pattern"));
  ASSERT_TRUE(client.Load("alpha", "exam", xml).ok());

  // Warm path first: correct answer with no budget.
  const auto expected = OracleEval(xml, pattern);
  auto warm_or = client.Eval("alpha", "exam", pattern);
  ASSERT_TRUE(warm_or.ok());
  EXPECT_EQ(warm_or->tuples, expected);

  // max_steps=1 trips deterministically (no wall-clock dependence).
  CallOptions tiny;
  tiny.budget.max_steps = 1;
  auto tripped_or = client.Eval("alpha", "exam", pattern, tiny);
  ASSERT_FALSE(tripped_or.ok());
  EXPECT_TRUE(guard::IsResourceCode(tripped_or.status().code()))
      << tripped_or.status().ToString();

  // The same connection and the same corpus entry still serve exactly.
  auto after_or = client.Eval("alpha", "exam", pattern);
  ASSERT_TRUE(after_or.ok()) << after_or.status().ToString();
  EXPECT_EQ(after_or->tuples, expected);

  // Budgeted matrix: per-cell degradation, response still ok, tripped
  // cells conservatively not-independent — and the warm cache is not
  // poisoned, so the unbudgeted rerun is exact.
  const std::string fd1 = ReadFileOrDie(DataPath("fd1.fd"));
  auto unbudgeted_or = client.Matrix("alpha", {fd1}, {pattern});
  ASSERT_TRUE(unbudgeted_or.ok());
  EXPECT_EQ(unbudgeted_or->independent, 1u);

  CallOptions tiny_states;
  tiny_states.budget.max_automaton_states = 1;
  auto budget_matrix_or =
      client.Matrix("alpha", {fd1}, {pattern}, "", tiny_states);
  ASSERT_TRUE(budget_matrix_or.ok()) << budget_matrix_or.status().ToString();
  ASSERT_EQ(budget_matrix_or->cells.size(), 1u);
  EXPECT_FALSE(budget_matrix_or->cells[0].independent);
  EXPECT_TRUE(guard::IsResourceCode(budget_matrix_or->cells[0].status));

  auto rerun_or = client.Matrix("alpha", {fd1}, {pattern});
  ASSERT_TRUE(rerun_or.ok());
  EXPECT_EQ(rerun_or->independent, 1u);
  ASSERT_EQ(rerun_or->cells.size(), 1u);
  EXPECT_EQ(rerun_or->cells[0].status, StatusCode::kOk);

  // The trips landed in this tenant's ledger, not as request errors.
  auto stats_or = client.Stats();
  ASSERT_TRUE(stats_or.ok());
  ASSERT_EQ(stats_or->size(), 1u);
  EXPECT_GE((*stats_or)[0].trips, 2);

  ts.server->Stop();
}

// Per-tenant default budgets (the quota op) apply to unbudgeted requests
// of that tenant only; an explicit request budget overrides, and other
// tenants never see it.
TEST(ServeTest, QuotaScopesDefaultBudgetToOneTenant) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  Client client = ConnectOrDie(ts.socket_path);

  const std::string xml = ReadFileOrDie(ExamXmlPath());
  const std::string pattern = ReadFileOrDie(DataPath("update_u.pattern"));
  ASSERT_TRUE(client.Load("alpha", "exam", xml).ok());
  ASSERT_TRUE(client.Load("beta", "exam", xml).ok());

  guard::ExecutionBudget strict;
  strict.max_steps = 1;
  ASSERT_TRUE(client.Quota("alpha", strict).ok());

  auto tripped_or = client.Eval("alpha", "exam", pattern);
  ASSERT_FALSE(tripped_or.ok());
  EXPECT_TRUE(guard::IsResourceCode(tripped_or.status().code()));

  // Explicit generous budget on the request overrides the tenant default.
  CallOptions generous;
  generous.budget.max_steps = 1 << 20;
  auto explicit_or = client.Eval("alpha", "exam", pattern, generous);
  EXPECT_TRUE(explicit_or.ok()) << explicit_or.status().ToString();

  // The sibling tenant is untouched.
  auto beta_or = client.Eval("beta", "exam", pattern);
  EXPECT_TRUE(beta_or.ok()) << beta_or.status().ToString();

  ts.server->Stop();
}

// A client that hangs up mid-request must not take the server down; its
// connection token is cancelled and new connections keep being served.
TEST(ServeTest, MidRequestDisconnectLeavesServerHealthy) {
  ServerOptions options;
  options.jobs = 2;
  TestServer ts = StartTestServer(options);
  ASSERT_NE(ts.server, nullptr);

  const std::string xml = ReadFileOrDie(ExamXmlPath());
  const std::string pattern = ReadFileOrDie(DataPath("update_u.pattern"));
  {
    Client loader = ConnectOrDie(ts.socket_path);
    ASSERT_TRUE(loader.Load("alpha", "exam", xml).ok());
  }

  for (int i = 0; i < 4; ++i) {
    Client aborter = ConnectOrDie(ts.socket_path);
    Request req;
    req.id = 1;
    req.op = "eval";
    req.tenant = "alpha";
    req.doc = "exam";
    req.text = pattern;
    ASSERT_TRUE(aborter.SendLine(EncodeRequest(req).Serialize()).ok());
    // Destructor closes the socket without reading the response: the
    // server's disconnect watcher cancels the request token.
  }

  Client client = ConnectOrDie(ts.socket_path);
  auto eval_or = client.Eval("alpha", "exam", pattern);
  ASSERT_TRUE(eval_or.ok()) << eval_or.status().ToString();
  EXPECT_EQ(eval_or->tuples, OracleEval(xml, pattern));

  ts.server->Stop();
}

// Malformed bytes — hand-picked and fuzz-generated — get a structured
// error envelope, never a dropped connection or a crash.
TEST(ServeTest, MalformedRequestsGetStructuredErrors) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  Client client = ConnectOrDie(ts.socket_path);

  std::vector<std::string> lines = {
      "not json at all",
      "{",
      "[1,2,3]",
      "{}",
      "{\"id\":7}",
      "{\"id\":7,\"v\":999,\"op\":\"stats\"}",
      "{\"id\":7,\"v\":1,\"op\":\"frobnicate\"}",
      "{\"id\":7,\"v\":1,\"op\":\"eval\",\"tenant\":\"../etc\"}",
      "{\"id\":7,\"v\":1,\"op\":\"eval\",\"tenant\":\"t\",\"doc\":42}",
      "{\"id\":7,\"v\":1,\"op\":\"load\",\"budget\":\"lots\"}",
  };
  // Reuse the fuzz byte generator for adversarial garbage; newlines would
  // split into several frames, so strip them (each line is one request).
  Rng rng(0xC0FFEE);
  for (int i = 0; i < 32; ++i) {
    std::string bytes = fuzz::GenerateRandomBytes(&rng, 200);
    std::string line;
    for (char ch : bytes) {
      if (ch != '\n' && ch != '\r' && ch != '\0') line.push_back(ch);
    }
    if (!line.empty()) lines.push_back(std::move(line));
  }

  for (const std::string& line : lines) {
    ASSERT_TRUE(client.SendLine(line).ok());
    auto reply_or = client.ReadLine();
    ASSERT_TRUE(reply_or.ok()) << "server dropped connection on: " << line;
    auto parsed_or = JsonValue::Parse(*reply_or);
    ASSERT_TRUE(parsed_or.ok()) << "unparseable reply: " << *reply_or;
    const JsonValue* ok = parsed_or->Find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_FALSE(ok->bool_value());
    const JsonValue* error = parsed_or->Find("error");
    ASSERT_NE(error, nullptr) << *reply_or;
    EXPECT_FALSE(error->FindString("code").empty());
    EXPECT_FALSE(error->FindString("message").empty());
  }

  // The connection is still good for real requests afterwards.
  const std::string xml = ReadFileOrDie(ExamXmlPath());
  EXPECT_TRUE(client.Load("alpha", "exam", xml).ok());

  ts.server->Stop();
}

// Oversized request lines are rejected with RESOURCE_EXHAUSTED and the
// connection recovers at the next newline.
TEST(ServeTest, OversizedRequestLineIsRejectedAndSkipped) {
  ServerOptions options;
  options.max_line_bytes = 512;
  TestServer ts = StartTestServer(options);
  ASSERT_NE(ts.server, nullptr);
  Client client = ConnectOrDie(ts.socket_path);

  ASSERT_TRUE(client.SendLine(std::string(4096, 'x')).ok());
  auto reply_or = client.ReadLine();
  ASSERT_TRUE(reply_or.ok());
  auto parsed_or = JsonValue::Parse(*reply_or);
  ASSERT_TRUE(parsed_or.ok());
  EXPECT_EQ(parsed_or->Find("error")->FindString("code"),
            "RESOURCE_EXHAUSTED");

  // The next (valid, small) request on the same connection succeeds.
  auto stats_or = client.Stats();
  EXPECT_TRUE(stats_or.ok()) << stats_or.status().ToString();

  ts.server->Stop();
}

TEST(ServeTest, DropRemovesDocumentAndReportsMisses) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  Client client = ConnectOrDie(ts.socket_path);

  const std::string xml = ReadFileOrDie(ExamXmlPath());
  const std::string pattern = ReadFileOrDie(DataPath("update_u.pattern"));
  ASSERT_TRUE(client.Load("alpha", "exam", xml).ok());

  auto dropped_or = client.Drop("alpha", "exam");
  ASSERT_TRUE(dropped_or.ok());
  EXPECT_TRUE(*dropped_or);

  auto again_or = client.Drop("alpha", "exam");
  ASSERT_TRUE(again_or.ok());
  EXPECT_FALSE(*again_or);

  auto eval_or = client.Eval("alpha", "exam", pattern);
  ASSERT_FALSE(eval_or.ok());
  EXPECT_EQ(eval_or.status().code(), StatusCode::kNotFound);

  auto ghost_or = client.Eval("ghost-tenant", "exam", pattern);
  ASSERT_FALSE(ghost_or.ok());
  EXPECT_EQ(ghost_or.status().code(), StatusCode::kNotFound);

  ts.server->Stop();
}

TEST(ServeTest, ShutdownIsAcknowledgedBeforeTheServerStops) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  Client client = ConnectOrDie(ts.socket_path);
  EXPECT_TRUE(client.Shutdown().ok());
  // The shutdown request resolves Wait(); Stop() tears down cleanly.
  EXPECT_TRUE(ts.server->WaitFor(5000));
  ts.server->Stop();
  // After Stop() the socket is gone: new connections are refused.
  auto late_or = Client::Connect(ts.socket_path);
  EXPECT_FALSE(late_or.ok());
}

TEST(ServeTest, ProfiledRequestsCarryAProfileField) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  Client client = ConnectOrDie(ts.socket_path);

  const std::string xml = ReadFileOrDie(ExamXmlPath());
  const std::string pattern = ReadFileOrDie(DataPath("update_u.pattern"));
  ASSERT_TRUE(client.Load("alpha", "exam", xml).ok());

  Request req;
  req.op = "eval";
  req.tenant = "alpha";
  req.doc = "exam";
  req.text = pattern;
  req.profile = true;
  auto response_or = client.Call(std::move(req));
  ASSERT_TRUE(response_or.ok()) << response_or.status().ToString();
  const JsonValue* profile = response_or->Find("profile");
  ASSERT_NE(profile, nullptr);
  ASSERT_TRUE(profile->is_object());
  EXPECT_NE(profile->Find("op"), nullptr);

  ts.server->Stop();
}

}  // namespace
}  // namespace rtp::serve
