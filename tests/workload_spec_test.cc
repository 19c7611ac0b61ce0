// Spec-layer contract for rtp::workload (docs/WORKLOADS.md): malformed
// specs, unknown keys and references, and integers that do not fit their
// field yield structured Status errors — never crashes — and the
// committed smoke spec parses to the exact shape the load CI leg replays.
// The runner itself is covered by tests/workload_runner_test.cc in the
// serve battery (it needs a live server).

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "workload/generator.h"
#include "workload/spec.h"

namespace rtp::workload {
namespace {

std::string SmokeSpecPath() {
  return std::string(RTP_EXAMPLES_WORKLOADS_DIR) + "/smoke.json";
}

// Minimal valid spec the error tests mutate from.
constexpr char kTinySpec[] = R"({
  "name": "tiny",
  "count": 3,
  "mix": {"ping": {"op": "stats", "weight": 1}}
})";

// A spec whose one mix op is `op` (a JSON object body) and whose count is
// `count`, plus any extra top-level members in `extra`.
std::string MixSpec(const std::string& op, const std::string& extra = "",
                    const std::string& count = "1") {
  return R"({"name": "x", "count": )" + count + extra +
         R"(, "mix": {"a": )" + op + "}}";
}

void ExpectInvalid(const StatusOr<WorkloadSpec>& spec,
                   const std::string& message_part) {
  ASSERT_FALSE(spec.ok()) << message_part;
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument)
      << spec.status().ToString();
  EXPECT_NE(spec.status().message().find(message_part), std::string::npos)
      << spec.status().ToString();
}

TEST(WorkloadSpecTest, TinySpecParses) {
  auto spec = ParseWorkloadSpec(kTinySpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "tiny");
  EXPECT_EQ(spec->tenant, "load");  // default
  EXPECT_EQ(spec->count, 3u);
  EXPECT_EQ(spec->duration_s, 0);
  EXPECT_TRUE(spec->setup.empty());
  ASSERT_EQ(spec->mix.size(), 1u);
  EXPECT_EQ(spec->mix[0].name, "ping");
  EXPECT_EQ(spec->mix[0].kind, OpKind::kStats);
  EXPECT_EQ(spec->mix[0].weight, 1u);
}

TEST(WorkloadSpecTest, MalformedJsonIsParseError) {
  auto spec = ParseWorkloadSpec("{\"name\": \"x\", ");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kParseError);
}

TEST(WorkloadSpecTest, NonObjectSpecRejected) {
  auto spec = ParseWorkloadSpec("[1, 2, 3]");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(WorkloadSpecTest, UnknownOpRejected) {
  ExpectInvalid(
      ParseWorkloadSpec(MixSpec(R"({"op": "frobnicate", "weight": 1})")),
      "unknown op 'frobnicate'");
}

TEST(WorkloadSpecTest, UnknownKeyRejected) {
  ExpectInvalid(ParseWorkloadSpec(MixSpec(R"({"op": "stats", "wieght": 1})")),
                "wieght");
  ExpectInvalid(ParseWorkloadSpec(MixSpec(
                    R"({"op": "stats", "weight": 1})",
                    R"(, "generators": {"g": {"kind": "exam_doc",
                                              "candiates": 4}})")),
                "generator 'g': unknown key 'candiates'");
}

// Specs are flat: a `nodes` graph or a `root` is an unknown key.
TEST(WorkloadSpecTest, UnknownNodeReferenceRejected) {
  ExpectInvalid(ParseWorkloadSpec(R"({
    "name": "x",
    "nodes": {"main": {"op": "sequence", "children": ["nope"]}},
    "root": "main"
  })"),
                "unknown key 'nodes'");
}

TEST(WorkloadSpecTest, UnknownRootRejected) {
  ExpectInvalid(ParseWorkloadSpec(MixSpec(R"({"op": "stats", "weight": 1})",
                                          R"(, "root": "absent")")),
                "unknown key 'root'");
}

TEST(WorkloadSpecTest, LoopNeedsExactlyOneOfCountAndDuration) {
  auto neither = ParseWorkloadSpec(R"({
    "name": "x", "mix": {"b": {"op": "stats", "weight": 1}}
  })");
  ExpectInvalid(neither, "exactly one");
  auto both = ParseWorkloadSpec(R"({
    "name": "x", "count": 1, "duration_s": 1,
    "mix": {"b": {"op": "stats", "weight": 1}}
  })");
  ExpectInvalid(both, "exactly one");
  auto zero_duration = ParseWorkloadSpec(R"({
    "name": "x", "duration_s": 0,
    "mix": {"b": {"op": "stats", "weight": 1}}
  })");
  ExpectInvalid(zero_duration, "'duration_s' must be a positive number");
}

TEST(WorkloadSpecTest, LoopCountMustBeANonnegativeInteger) {
  for (const char* count : {"1e300", "1.5", "-1"}) {
    ExpectInvalid(ParseWorkloadSpec(
                      MixSpec(R"({"op": "stats", "weight": 1})", "", count)),
                  "must be a nonnegative integer");
  }
}

// Every mix op carries its own weight, and only mix ops carry one.
TEST(WorkloadSpecTest, WeightsMustMatchChildren) {
  ExpectInvalid(ParseWorkloadSpec(MixSpec(R"({"op": "stats"})")),
                "needs a 'weight'");
  ExpectInvalid(ParseWorkloadSpec(R"({
    "name": "x", "count": 1,
    "setup": {"s": {"op": "stats", "weight": 1}},
    "mix": {"a": {"op": "stats", "weight": 1}}
  })"),
                "'weight' only applies to mix ops");
}

TEST(WorkloadSpecTest, ZeroWeightRejected) {
  ExpectInvalid(ParseWorkloadSpec(MixSpec(R"({"op": "stats", "weight": 0})")),
                "weight must be positive");
}

TEST(WorkloadSpecTest, EmptyMixRejected) {
  ExpectInvalid(ParseWorkloadSpec(R"({"name": "x", "count": 1, "mix": {}})"),
                "non-empty 'mix'");
}

// Setup and mix ops share the stats namespace.
TEST(WorkloadSpecTest, DuplicateOpNameRejected) {
  ExpectInvalid(ParseWorkloadSpec(R"({
    "name": "x", "count": 1,
    "setup": {"a": {"op": "stats"}},
    "mix": {"a": {"op": "stats", "weight": 1}}
  })"),
                "duplicate op 'a'");
}

TEST(WorkloadSpecTest, OpNeedsExactlyOnePayloadSource) {
  ExpectInvalid(
      ParseWorkloadSpec(MixSpec(R"({"op": "eval", "weight": 1, "doc": "d"})")),
      "exactly one payload source");
  auto two = ParseWorkloadSpec(
      MixSpec(R"({"op": "eval", "weight": 1, "doc": "d", "text": "t",
                  "generator": "g"})",
              R"(, "generators": {"g": {"kind": "fuzz_pattern"}})"));
  ExpectInvalid(two, "exactly one payload source");
}

TEST(WorkloadSpecTest, UnknownGeneratorKindRejected) {
  ExpectInvalid(ParseWorkloadSpec(MixSpec(
                    R"({"op": "stats", "weight": 1})",
                    R"(, "generators": {"g": {"kind": "quantum_noise"}})")),
                "quantum_noise");
}

TEST(WorkloadSpecTest, UnknownGeneratorReferenceRejected) {
  ExpectInvalid(ParseWorkloadSpec(MixSpec(
                    R"({"op": "eval", "weight": 1, "doc": "d",
                        "generator": "ghost"})")),
                "ghost");
}

TEST(WorkloadSpecTest, MissingPayloadFileRejected) {
  ExpectInvalid(ParseWorkloadSpec(MixSpec(
                    R"({"op": "load", "weight": 1, "doc": "d",
                        "file": "no/such/file.xml"})")),
                "no/such/file.xml");
}

// Integers from the spec land in int and uint32 fields; a value beyond the
// field is rejected with the key's name instead of wrapping.
TEST(WorkloadSpecTest, IntegersBeyondTheirFieldRejected) {
  ExpectInvalid(
      ParseWorkloadSpec(MixSpec(R"({"op": "stats", "weight": 1})",
                                R"(, "chaos": {"seed": 1, "read_stall": 100,
                                     "call_timeout_ms": 2147483648})")),
      "call_timeout_ms must be at most 2147483647");
  ExpectInvalid(
      ParseWorkloadSpec(MixSpec(
          R"({"op": "stats", "weight": 1})",
          R"(, "generators": {"g": {"kind": "exam_doc",
                                    "candidates": 4294967296}})")),
      "candidates must be at most 4294967295");
  ExpectInvalid(
      ParseWorkloadSpec(MixSpec(
          R"({"op": "stats", "weight": 1})",
          R"(, "generators": {"g": {"kind": "fuzz_xml",
                                    "max_xml_nodes": 4294967297}})")),
      "max_xml_nodes must be at most 4294967295");
  ExpectInvalid(
      ParseWorkloadSpec(MixSpec(R"({"op": "stats", "weight": 4294967296})")),
      "weight must be at most 4294967295");
  ExpectInvalid(ParseWorkloadSpec(MixSpec(
                    R"({"op": "eval", "weight": 1, "doc": "d", "text": "t",
                        "max_memory_mb": 9007199254740992})")),
                "max_memory_mb must be at most");

  // The largest values that fit still parse.
  auto at_max = ParseWorkloadSpec(MixSpec(
      R"({"op": "stats", "weight": 4294967295})",
      R"(, "chaos": {"seed": 1, "read_stall": 100,
                     "call_timeout_ms": 2147483647},
         "generators": {"g": {"kind": "fuzz_xml",
                               "max_xml_nodes": 4294967295}})"));
  ASSERT_TRUE(at_max.ok()) << at_max.status().ToString();
  EXPECT_EQ(at_max->chaos_call_timeout_ms, 2147483647);
  EXPECT_EQ(at_max->generators[0].text_params.max_xml_nodes, 4294967295u);
  EXPECT_EQ(at_max->mix[0].weight, 4294967295u);
}

TEST(WorkloadSpecTest, BudgetFieldsParse) {
  auto spec = ParseWorkloadSpec(MixSpec(
      R"({"op": "eval", "weight": 1, "doc": "d", "text": "t",
          "deadline_ms": 250, "max_states": 1000, "max_steps": 5,
          "max_memory_mb": 16})"));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const WorkloadOp& a = spec->mix[0];
  EXPECT_EQ(a.budget.deadline_ms, 250);
  EXPECT_EQ(a.budget.max_automaton_states, 1000);
  EXPECT_EQ(a.budget.max_steps, 5);
  EXPECT_EQ(a.budget.max_memory_bytes, int64_t{16} << 20);
}

// Golden parse of the committed smoke spec — the exact shape the load CI
// leg replays.
TEST(WorkloadSpecTest, GoldenSmokeSpecParses) {
  auto spec = LoadWorkloadSpecFile(SmokeSpecPath());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "smoke");
  EXPECT_EQ(spec->tenant, "smoke");
  EXPECT_EQ(spec->count, 480u);
  ASSERT_EQ(spec->generators.size(), 2u);
  EXPECT_EQ(spec->generators[0].name, "gen_pattern");
  EXPECT_EQ(spec->generators[0].kind, "fuzz_pattern");
  EXPECT_EQ(spec->generators[1].name, "gen_doc");
  EXPECT_EQ(spec->generators[1].kind, "exam_doc");
  EXPECT_EQ(spec->generators[1].exam_candidates, 8u);

  ASSERT_EQ(spec->setup.size(), 1u);
  const WorkloadOp& load_exam = spec->setup[0];
  EXPECT_EQ(load_exam.name, "load_exam");
  EXPECT_EQ(load_exam.kind, OpKind::kLoad);
  // The "file" payload is inlined at parse time.
  EXPECT_NE(load_exam.text.find("<session>"), std::string::npos);

  std::vector<std::string> names;
  std::vector<uint64_t> weights;
  for (const WorkloadOp& op : spec->mix) {
    names.push_back(op.name);
    weights.push_back(op.weight);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"eval_marks", "check_rank_fd",
                                             "eval_fuzz", "reload_scratch",
                                             "server_stats", "small_matrix"}));
  EXPECT_EQ(weights, (std::vector<uint64_t>{60, 36, 24, 15, 20, 5}));
  EXPECT_EQ(spec->mix[2].generator, 0u);  // eval_fuzz draws from gen_pattern
  const WorkloadOp& matrix = spec->mix[5];
  ASSERT_EQ(matrix.kind, OpKind::kMatrix);
  EXPECT_EQ(matrix.fd_texts.size(), 1u);
  EXPECT_EQ(matrix.class_texts.size(), 1u);
}

TEST(WorkloadSpecTest, GoldenSoakSpecParses) {
  auto spec = LoadWorkloadSpecFile(std::string(RTP_EXAMPLES_WORKLOADS_DIR) +
                                   "/soak.json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->count, 0u);
  EXPECT_EQ(spec->duration_s, 1200);
  // The third document loads in setup; the mix reloads and queries it.
  ASSERT_EQ(spec->setup.size(), 3u);
  EXPECT_EQ(spec->setup[2].doc, "sub");
  uint64_t total = 0;
  for (const WorkloadOp& op : spec->mix) total += op.weight;
  EXPECT_EQ(total, 60u);
  EXPECT_EQ(spec->mix.size(), 11u);
}

TEST(WorkloadSpecTest, GoldenChaosSpecParses) {
  auto spec = LoadWorkloadSpecFile(std::string(RTP_EXAMPLES_WORKLOADS_DIR) +
                                   "/chaos.json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->count, 240u);
  EXPECT_TRUE(spec->chaos.enabled());
  // The chaos CI leg relies on the spec injecting every failing kind plus
  // the benign perturbations — keep all seven rates nonzero.
  EXPECT_GT(spec->chaos.connect_refused, 0u);
  EXPECT_GT(spec->chaos.read_stall, 0u);
  EXPECT_GT(spec->chaos.write_stall, 0u);
  EXPECT_GT(spec->chaos.torn_write, 0u);
  EXPECT_GT(spec->chaos.corrupt_byte, 0u);
  EXPECT_GT(spec->chaos.premature_close, 0u);
  EXPECT_GT(spec->chaos.response_delay, 0u);
  EXPECT_TRUE(spec->chaos.Validate().ok());
  EXPECT_GT(spec->chaos_max_attempts, 1);
  EXPECT_GT(spec->chaos_call_timeout_ms, 0);
}

TEST(WorkloadGeneratorTest, FuzzGeneratorsAreSeedDeterministic) {
  auto spec = ParseWorkloadSpec(
      MixSpec(R"({"op": "eval", "weight": 1, "doc": "d", "generator": "g"})",
              R"(, "generators": {"g": {"kind": "fuzz_pattern",
                                        "num_labels": 3}})"));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto gen1 = CreateGenerator(spec->generators[0]);
  auto gen2 = CreateGenerator(spec->generators[0]);
  ASSERT_TRUE(gen1.ok());
  ASSERT_TRUE(gen2.ok());
  Rng rng1(99), rng2(99);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*gen1)->Next(&rng1), (*gen2)->Next(&rng2));
  }
}

}  // namespace
}  // namespace rtp::workload
