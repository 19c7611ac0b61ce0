// `rtp_cli --socket` against an in-process rtpd: for eval, checkfd and
// matrix, the served run must print exactly what the serial run prints
// and exit with the same code. Both runs are real rtp_cli processes; the
// server lives in this test process on a temp socket.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "serve/server.h"

namespace rtp::serve {
namespace {

struct RunResult {
  int exit_code;
  std::string stdout_text;
};

RunResult RunCli(const std::string& args) {
  std::string cmd = "'" + std::string(RTP_CLI_BINARY) + "' " + args +
                    " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return RunResult{-1, ""};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  int status = pclose(pipe);
  return RunResult{WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

std::string Data(const char* name) {
  return std::string(RTP_EXAMPLES_DATA_DIR) + "/" + name;
}

class CliSocketTest : public testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test as its own process: name files per process and
    // per test so parallel runs never share a socket or an input file.
    prefix_ = testing::TempDir() + "rtp_cli_socket_" +
              std::to_string(::getpid()) + "_" +
              testing::UnitTest::GetInstance()->current_test_info()->name();
    ServerOptions options;
    options.socket_path = prefix_ + ".sock";
    auto server = Server::Start(options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  // Stops the server, then removes every file named after prefix_: the
  // socket and any input a test wrote.
  void TearDown() override {
    server_.reset();
    const std::filesystem::path dir =
        std::filesystem::path(prefix_).parent_path();
    const std::string stem = std::filesystem::path(prefix_).filename();
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().filename().string().starts_with(stem)) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }

  // Runs `args` serially and through --socket; both must agree.
  void ExpectServedEqualsSerial(const std::string& args) {
    RunResult serial = RunCli(args);
    RunResult served =
        RunCli("--socket='" + server_->socket_path() + "' " + args);
    EXPECT_EQ(served.stdout_text, serial.stdout_text) << args;
    EXPECT_EQ(served.exit_code, serial.exit_code) << args;
  }

  std::string prefix_;
  std::unique_ptr<Server> server_;
};

TEST_F(CliSocketTest, EvalMatchesSerial) {
  ExpectServedEqualsSerial("eval " + Data("update_u.pattern") + " " +
                           Data("exam.xml"));
}

// The selected subtrees carry attributes and every JSON and XML escape
// class, so the served answer's writer and decoder are checked byte for
// byte against the serial rendering.
TEST_F(CliSocketTest, EscapesEvalMatchesSerial) {
  const std::string args =
      "eval " + Data("escapes.pattern") + " " + Data("escapes.xml");
  EXPECT_EQ(RunCli(args).stdout_text.rfind("3 tuple(s)\n", 0), 0u);
  ExpectServedEqualsSerial(args);
}

TEST_F(CliSocketTest, CheckFdMatchesSerial) {
  ExpectServedEqualsSerial("checkfd " + Data("fd1.fd") + " " +
                           Data("exam.xml"));
}

TEST_F(CliSocketTest, MatrixMatchesSerial) {
  ExpectServedEqualsSerial("matrix " + Data("fd1.fd") + "," + Data("fd5.fd") +
                           " " + Data("update_u.pattern") + " " +
                           Data("exam.schema"));
}

// Every FD under examples/data holds on exam.xml, so the violation text
// needs a document of its own: two math exams marked 15 in one session,
// ranked 2 and 3, break fd1.
TEST_F(CliSocketTest, ViolatedFdMatchesSerial) {
  const std::string doc = prefix_ + "_violated.xml";
  std::ofstream(doc)
      << "<session>"
         "<candidate><exam><discipline>math</discipline><mark>15</mark>"
         "<rank>2</rank></exam></candidate>"
         "<candidate><exam><discipline>math</discipline><mark>15</mark>"
         "<rank>3</rank></exam></candidate>"
         "</session>";
  RunResult serial = RunCli("checkfd " + Data("fd1.fd") + " " + doc);
  ASSERT_EQ(serial.exit_code, 1);
  ASSERT_NE(serial.stdout_text.find("VIOLATED"), std::string::npos);
  ExpectServedEqualsSerial("checkfd " + Data("fd1.fd") + " " +
                           Data("exam.xml") + " " + doc);
}

TEST_F(CliSocketTest, InProcessOnlyUsesAreUsageErrors) {
  const std::string socket = "--socket='" + server_->socket_path() + "' ";
  const std::string eval =
      "eval " + Data("update_u.pattern") + " " + Data("exam.xml");
  EXPECT_EQ(RunCli(socket + "--jobs=2 " + eval).exit_code, 2);
  EXPECT_EQ(RunCli(socket + "--profile " + eval).exit_code, 2);
  EXPECT_EQ(RunCli(socket + "explain " + eval).exit_code, 2);
  EXPECT_EQ(RunCli(socket + "validate " + Data("exam.schema") + " " +
                   Data("exam.xml"))
                .exit_code,
            2);
}

}  // namespace
}  // namespace rtp::serve
