// rtpd's command line: a flag value that does not fit the field it lands
// in is a usage error (exit 2 naming the flag), never a silently wrapped
// setting. rtpd runs without --socket here, so it never starts serving:
// a rejected flag stops it at parse time, an accepted one at the missing
// --socket.

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace {

struct RtpdResult {
  int exit_code;
  std::string stderr_text;
};

RtpdResult RunRtpd(const std::string& args) {
  std::string cmd = "'" + std::string(RTPD_BINARY) + "' " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return RtpdResult{-1, ""};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  int status = pclose(pipe);
  return RtpdResult{WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(RtpdFlagsTest, MillisecondFlagsAboveIntMaxAreUsageErrors) {
  for (const std::string flag :
       {"--idle-timeout-ms", "--drain-grace-ms", "--max-retry-after-ms"}) {
    RtpdResult over = RunRtpd(flag + "=2147483648");
    EXPECT_EQ(over.exit_code, 2) << flag;
    EXPECT_NE(over.stderr_text.find("error: " + flag + " requires"),
              std::string::npos)
        << over.stderr_text;

    // INT_MAX itself fits; parsing goes on to the missing --socket.
    RtpdResult max = RunRtpd(flag + "=2147483647");
    EXPECT_EQ(max.exit_code, 2) << flag;
    EXPECT_NE(max.stderr_text.find("error: --socket is required"),
              std::string::npos)
        << max.stderr_text;
  }
}

TEST(RtpdFlagsTest, UnknownLogLevelIsAUsageError) {
  RtpdResult loud = RunRtpd("--log-level=loud");
  EXPECT_EQ(loud.exit_code, 2);
  EXPECT_NE(loud.stderr_text.find(
                "error: --log-level must be debug|info|warn|error|off\n"
                "usage: rtpd"),
            std::string::npos)
      << loud.stderr_text;

  // A known level parses; rtpd stops at the missing --socket.
  RtpdResult warn = RunRtpd("--log-level=warn");
  EXPECT_EQ(warn.exit_code, 2);
  EXPECT_NE(warn.stderr_text.find("error: --socket is required"),
            std::string::npos)
      << warn.stderr_text;
}

}  // namespace
