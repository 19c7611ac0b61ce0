// Integration test: `rtp_cli --stats` on the examples/ inputs emits
// parseable JSON containing the expected metric keys. This is a golden-KEY
// check — values vary with implementation details, so assertions are about
// the presence (and coarse nonzero-ness) of keys, never exact numbers.
//
// The build injects RTP_CLI_BINARY and RTP_EXAMPLES_DATA_DIR as absolute
// paths (tests/CMakeLists.txt), so the test is independent of the ctest
// working directory.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "serve/json.h"

namespace {

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

struct RunResult {
  int exit_code;
  std::string stdout_text;
};

RunResult RunCli(const std::string& args, bool merge_stderr = false) {
  std::string cmd = Quoted(RTP_CLI_BINARY) + " " + args +
                    (merge_stderr ? " 2>&1" : " 2>/dev/null");
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  int status = pclose(pipe);
  return RunResult{WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

std::string DataPath(const std::string& name) {
  return std::string(RTP_EXAMPLES_DATA_DIR) + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Extracts the integer value of `"key":<digits>` from a JSON dump. Returns
// -1 when the key is absent.
long long IntValueOf(const std::string& json, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(json.c_str() + pos + needle.size());
}

// Structural sanity: balanced braces, starts with '{', ends with '}'.
void ExpectParseableJsonObject(const std::string& json) {
  ASSERT_FALSE(json.empty());
  size_t first = json.find_first_not_of(" \t\r\n");
  size_t last = json.find_last_not_of(" \t\r\n");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(json[first], '{');
  EXPECT_EQ(json[last], '}');
  int depth = 0;
  bool in_string = false;
  for (size_t i = first; i <= last; ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0) << "unbalanced braces at offset " << i;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(CliStatsTest, IndependentEmitsPipelineMetrics) {
  std::string stats_file = testing::TempDir() + "/cli_stats_independent.json";
  std::remove(stats_file.c_str());

  // fd5 is independent of update class U (the paper's Figure 6 example);
  // the schema is needed to exclude the candidate-with-both-children
  // conflict documents, exactly as IC intersects with A_S in Section 5.
  RunResult r = RunCli("--stats=" + Quoted(stats_file) + " independent " +
                    Quoted(DataPath("fd5.fd")) + " " +
                    Quoted(DataPath("update_u.pattern")) + " " +
                    Quoted(DataPath("exam.schema")));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;

  std::string json = ReadFileOrDie(stats_file);
  ExpectParseableJsonObject(json);

  // The dump shape is versioned.
  EXPECT_EQ(IntValueOf(json, "schema_version"), 2) << json;
  // Acceptance keys: the product construction and the criterion ran.
  EXPECT_GT(IntValueOf(json, "automata.product.states_built"), 0) << json;
  EXPECT_GT(IntValueOf(json, "independence.criterion.checks"), 0) << json;
  EXPECT_EQ(IntValueOf(json, "independence.criterion.independent"), 1)
      << json;
  // The rest of the pipeline reported too.
  for (const char* key :
       {"automata.compile.patterns", "automata.emptiness.checks",
        "regex.compilations"}) {
    EXPECT_GT(IntValueOf(json, key), 0) << key << "\n" << json;
  }
  // Latency histograms are present (key existence only).
  for (const char* key :
       {"independence.criterion.ns", "automata.emptiness.ns"}) {
    EXPECT_NE(json.find("\"" + std::string(key) + "\":{"), std::string::npos)
        << key << "\n" << json;
  }
  std::remove(stats_file.c_str());
}

TEST(CliStatsTest, CheckFdEmitsEvaluatorAndFdMetrics) {
  std::string stats_file = testing::TempDir() + "/cli_stats_check.json";
  std::remove(stats_file.c_str());

  RunResult r = RunCli("--stats=" + Quoted(stats_file) + " checkfd " +
                    Quoted(DataPath("fd1.fd")) + " " +
                    Quoted(DataPath("exam.xml")));
  // fd1 holds on the Figure 1 document.
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;

  std::string json = ReadFileOrDie(stats_file);
  ExpectParseableJsonObject(json);

  EXPECT_GT(IntValueOf(json, "fd.check.calls"), 0) << json;
  EXPECT_GT(IntValueOf(json, "fd.check.traces_enumerated"), 0) << json;
  EXPECT_GT(IntValueOf(json, "pattern.eval.enumerations"), 0) << json;
  EXPECT_GT(IntValueOf(json, "xml.parse.documents"), 0) << json;
  EXPECT_EQ(IntValueOf(json, "fd.check.violations"), -1) << json;
  std::remove(stats_file.c_str());
}

TEST(CliStatsTest, ValidateAgainstSchemaCountsValidation) {
  std::string stats_file = testing::TempDir() + "/cli_stats_validate.json";
  std::remove(stats_file.c_str());

  RunResult r = RunCli("--stats=" + Quoted(stats_file) + " validate " +
                    Quoted(DataPath("exam.schema")) + " " +
                    Quoted(DataPath("exam.xml")));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;

  std::string json = ReadFileOrDie(stats_file);
  ExpectParseableJsonObject(json);
  EXPECT_GT(IntValueOf(json, "schema.validations"), 0) << json;
  std::remove(stats_file.c_str());
}

TEST(CliStatsTest, BareStatsFlagDumpsToStderr) {
  RunResult r = RunCli("--stats eval " + Quoted(DataPath("update_u.pattern")) +
                        " " + Quoted(DataPath("exam.xml")),
                    /*merge_stderr=*/true);
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;
  // With no =<file>, the JSON dump goes to stderr after the command's
  // normal stdout output.
  size_t pos = r.stdout_text.find("\"counters\":{");
  ASSERT_NE(pos, std::string::npos) << r.stdout_text;
  EXPECT_NE(r.stdout_text.find("pattern.eval.enumerations"),
            std::string::npos)
      << r.stdout_text;
}

TEST(CliStatsTest, TraceOutWritesChromeTracingJson) {
  std::string trace_file = testing::TempDir() + "/cli_trace.json";
  std::remove(trace_file.c_str());

  RunResult r = RunCli("--trace-out=" + Quoted(trace_file) + " independent " +
                    Quoted(DataPath("fd5.fd")) + " " +
                    Quoted(DataPath("update_u.pattern")) + " " +
                    Quoted(DataPath("exam.schema")));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;

  std::string json = ReadFileOrDie(trace_file);
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("independence.criterion"), std::string::npos)
      << json;
  std::remove(trace_file.c_str());
}

// Every timed phase has one name: each span X of a trace has a histogram
// X.ns with one sample per span, and each X.ns histogram has its spans.
TEST(CliStatsTest, EveryPhaseHasOneName) {
  const std::string commands[] = {
      "independent " + Quoted(DataPath("fd5.fd")) + " " +
          Quoted(DataPath("update_u.pattern")) + " " +
          Quoted(DataPath("exam.schema")),
      "checkfd " + Quoted(DataPath("fd1.fd")) + " " +
          Quoted(DataPath("exam.xml")),
  };
  std::string stats_file = testing::TempDir() + "/cli_phase_stats.json";
  std::string trace_file = testing::TempDir() + "/cli_phase_trace.json";
  for (const std::string& command : commands) {
    RunResult r = RunCli("--stats=" + Quoted(stats_file) + " --trace-out=" +
                         Quoted(trace_file) + " " + command);
    EXPECT_EQ(r.exit_code, 0) << command;
    auto stats = rtp::serve::JsonValue::Parse(ReadFileOrDie(stats_file));
    auto trace = rtp::serve::JsonValue::Parse(ReadFileOrDie(trace_file));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();

    std::map<std::string, int64_t> spans;
    for (const rtp::serve::JsonValue& event : trace->array_items()) {
      ++spans[event.FindString("name")];
    }
    std::map<std::string, int64_t> histograms;
    const rtp::serve::JsonValue* all = stats->Find("histograms");
    ASSERT_NE(all, nullptr);
    for (const auto& [name, histogram] : all->object_items()) {
      if (name.size() < 3 || name.compare(name.size() - 3, 3, ".ns") != 0) {
        continue;
      }
      const rtp::serve::JsonValue* count = histogram.Find("count");
      ASSERT_NE(count, nullptr) << name;
      histograms[name.substr(0, name.size() - 3)] = count->int_value();
    }
    EXPECT_FALSE(spans.empty()) << command;
    EXPECT_EQ(spans, histograms) << command;
  }
  std::remove(stats_file.c_str());
  std::remove(trace_file.c_str());
}

TEST(CliProfileTest, ProfileFlagWritesQueryProfiles) {
  std::string profile_file = testing::TempDir() + "/cli_profile_eval.json";
  std::remove(profile_file.c_str());

  RunResult r = RunCli("--profile=" + Quoted(profile_file) + " eval " +
                    Quoted(DataPath("update_u.pattern")) + " " +
                    Quoted(DataPath("exam.xml")));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;

  std::string json = ReadFileOrDie(profile_file);
  ASSERT_FALSE(json.empty());
  // One QueryProfile object with op, wall, phase tree, and counter deltas.
  EXPECT_NE(json.find("\"op\":\"pattern.EvaluateSelected\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"wall_ns\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"phases\":["), std::string::npos) << json;
  EXPECT_NE(json.find("pattern.build_tables"), std::string::npos) << json;
  EXPECT_NE(json.find("pattern.enumerate"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pattern.eval.enumerations\":"), std::string::npos)
      << json;
  std::remove(profile_file.c_str());
}

TEST(CliProfileTest, ExplainWrapsCommandAndPrintsTextProfile) {
  RunResult r = RunCli("explain checkfd " + Quoted(DataPath("fd1.fd")) + " " +
                    Quoted(DataPath("exam.xml")));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;
  // The wrapped command's own output comes first...
  EXPECT_NE(r.stdout_text.find("satisfied"), std::string::npos)
      << r.stdout_text;
  // ...followed by the rendered profile: operation, phases, counters.
  EXPECT_NE(r.stdout_text.find("fd.CheckFd"), std::string::npos)
      << r.stdout_text;
  EXPECT_NE(r.stdout_text.find("pattern.build_tables"), std::string::npos)
      << r.stdout_text;
  EXPECT_NE(r.stdout_text.find("fd.group_and_compare"), std::string::npos)
      << r.stdout_text;
}

TEST(CliProfileTest, ExplainRejectsUnwrappableCommand) {
  RunResult r = RunCli("explain validate a b", /*merge_stderr=*/true);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stdout_text.find("explain"), std::string::npos)
      << r.stdout_text;
}

TEST(CliPrometheusTest, PrometheusFlagWritesExposition) {
  std::string prom_file = testing::TempDir() + "/cli_prometheus.txt";
  std::remove(prom_file.c_str());

  RunResult r = RunCli("--prometheus=" + Quoted(prom_file) + " checkfd " +
                    Quoted(DataPath("fd1.fd")) + " " +
                    Quoted(DataPath("exam.xml")));
  EXPECT_EQ(r.exit_code, 0) << r.stdout_text;

  std::string text = ReadFileOrDie(prom_file);
  EXPECT_NE(text.find("# TYPE rtp_fd_check_calls counter"), std::string::npos)
      << text;
  EXPECT_NE(text.find("rtp_fd_check_calls 1"), std::string::npos) << text;
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"}"), std::string::npos) << text;
  std::remove(prom_file.c_str());
}

TEST(CliStatsTest, UnknownCommandReportsDetail) {
  RunResult r = RunCli("frobnicate", /*merge_stderr=*/true);
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.stdout_text.find("unknown command 'frobnicate'"),
            std::string::npos)
      << r.stdout_text;
}

}  // namespace
