// Runner battery for rtp::workload (label `serve`; joins the TSan CI
// leg): in-process serve::Server on a temp AF_UNIX socket, driven by
// workload::RunWorkload with real client threads. The load-bearing test
// is determinism — two same-seed runs of a count-based spec must produce
// byte-identical per-op counts, the exact property the `load` CI leg
// enforces against a real daemon by diffing two rtp_load --counts-out
// files.

#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "serve/server.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace rtp::workload {
namespace {

std::string TempSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/rtp_workload_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

struct TestServer {
  std::string socket_path;
  std::unique_ptr<serve::Server> server;
};

TestServer StartTestServer(serve::ServerOptions options = {}) {
  TestServer ts;
  ts.socket_path = TempSocketPath();
  options.socket_path = ts.socket_path;
  auto server_or = serve::Server::Start(options);
  EXPECT_TRUE(server_or.ok()) << server_or.status().ToString();
  if (server_or.ok()) ts.server = std::move(server_or).value();
  return ts;
}

// A small count-based spec exercising every op kind but matrix in a
// weighted mix, so the determinism check covers both the mix draws and
// the generator draws. The exam document is inlined from examples/data via
// the parser's base_dir mechanism — the same way smoke.json sources it.
constexpr char kDeterministicSpec[] = R"({
  "name": "runner-test",
  "tenant": "runner-test",
  "generators": {
    "gen_pattern": {"kind": "fuzz_pattern", "num_labels": 4,
                    "max_template_nodes": 3, "max_regex_nodes": 4},
    "gen_doc": {"kind": "exam_doc", "candidates": 4}
  },
  "setup": {
    "load_exam": {"op": "load", "doc": "exam", "file": "exam.xml"}
  },
  "count": 30,
  "mix": {
    "eval_marks": {
      "op": "eval",
      "weight": 4,
      "doc": "exam",
      "text": "root { session/candidate { x = exam/mark; } } select x;"
    },
    "check_fd": {
      "op": "checkfd",
      "weight": 2,
      "doc": "exam",
      "text": "root { c = session { candidate/exam { p1 = discipline; p2 = mark; q = rank; } } } select p1[V], p2[V], q[V]; context c;"
    },
    "eval_fuzz": {"op": "eval", "weight": 2, "doc": "exam",
                  "generator": "gen_pattern"},
    "reload": {"op": "load", "weight": 1, "doc": "scratch",
               "generator": "gen_doc"},
    "stats": {"op": "stats", "weight": 1}
  }
})";

WorkloadSpec ParseOrDie(const char* text) {
  auto spec = ParseWorkloadSpec(text, RTP_EXAMPLES_DATA_DIR);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

// The reproducibility contract: same (spec, seed, threads) ⇒ identical
// per-op counts, zero errors, and exactly threads × count measured ops
// plus one per setup op.
TEST(WorkloadRunnerTest, SameSeedRunsAreCountIdentical) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  WorkloadSpec spec = ParseOrDie(kDeterministicSpec);

  RunnerOptions options;
  options.socket_path = ts.socket_path;
  options.threads = 4;
  options.seed = 42;

  auto run1 = RunWorkload(spec, options);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  auto run2 = RunWorkload(spec, options);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();

  EXPECT_EQ(run1->ops, 4 * spec.count + spec.setup.size());
  EXPECT_EQ(run1->errors, 0u) << run1->stats.ToText("runner-test", 4, 42,
                                                    run1->elapsed_s);
  EXPECT_EQ(run1->stats.ToCountsText(), run2->stats.ToCountsText());
  EXPECT_EQ(run1->ops, run2->ops);
  ts.server->Stop();
}

TEST(WorkloadRunnerTest, DifferentSeedsDiverge) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  WorkloadSpec spec = ParseOrDie(kDeterministicSpec);

  RunnerOptions options;
  options.socket_path = ts.socket_path;
  options.threads = 2;
  options.seed = 42;
  auto run1 = RunWorkload(spec, options);
  ASSERT_TRUE(run1.ok()) << run1.status().ToString();
  options.seed = 7;
  auto run2 = RunWorkload(spec, options);
  ASSERT_TRUE(run2.ok()) << run2.status().ToString();

  // With 2×30 weighted choices the chance of identical counts across all
  // five mix ops is negligible; a collision here means the seed is being
  // ignored.
  EXPECT_NE(run1->stats.ToCountsText(), run2->stats.ToCountsText());
  ts.server->Stop();
}

// Op-level failures are recorded and the run continues — the harness
// must survive a misbehaving server, and rtp_load turns the error count
// into exit code 1.
TEST(WorkloadRunnerTest, OpErrorsAreCountedNotFatal) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  WorkloadSpec spec = ParseOrDie(R"({
    "name": "errors", "tenant": "errors", "count": 5,
    "mix": {
      "bad_eval": {
        "op": "eval", "weight": 1, "doc": "never_loaded",
        "text": "root { session { x = mark; } } select x;"
      }
    }
  })");

  RunnerOptions options;
  options.socket_path = ts.socket_path;
  options.threads = 2;
  auto run = RunWorkload(spec, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->ops, 10u);     // 2 threads × 5 iterations, all executed
  EXPECT_EQ(run->errors, 10u);  // ...and all failed (doc never loaded)
  auto it = run->stats.ops().find("bad_eval");
  ASSERT_NE(it, run->stats.ops().end());
  EXPECT_EQ(it->second.errors, 5u * 2);
  EXPECT_EQ(run->first_error_op, "bad_eval");
  EXPECT_FALSE(run->first_error.ok());
  ts.server->Stop();
}

// A duration spec runs each thread for its duration_s and then stops.
TEST(WorkloadRunnerTest, DurationSpecRunsForItsDuration) {
  TestServer ts = StartTestServer();
  ASSERT_NE(ts.server, nullptr);
  WorkloadSpec spec = ParseOrDie(R"({
    "name": "timed", "tenant": "timed", "duration_s": 0.3,
    "mix": {"ping": {"op": "stats", "weight": 1}}
  })");

  RunnerOptions options;
  options.socket_path = ts.socket_path;
  options.threads = 2;
  auto run = RunWorkload(spec, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->ops, 0u);
  EXPECT_EQ(run->errors, 0u);
  EXPECT_GE(run->elapsed_s, 0.3);
  EXPECT_LT(run->elapsed_s, 10.0);  // stopped near 0.3 s
  ts.server->Stop();
}

TEST(WorkloadRunnerTest, InvalidOptionsRejected) {
  WorkloadSpec spec = ParseOrDie(kDeterministicSpec);
  RunnerOptions options;  // empty socket_path
  options.threads = 1;
  auto no_socket = RunWorkload(spec, options);
  EXPECT_FALSE(no_socket.ok());

  options.socket_path = "/tmp/rtp_workload_no_such_socket.sock";
  options.threads = 0;
  auto no_threads = RunWorkload(spec, options);
  EXPECT_FALSE(no_threads.ok());

  options.threads = 1;
  auto no_daemon = RunWorkload(spec, options);
  EXPECT_FALSE(no_daemon.ok());  // nothing listening
}

}  // namespace
}  // namespace rtp::workload
