// Spec-layer contract for rtp::workload v2 (docs/WORKLOADS.md): malformed,
// unknown-reference, and cyclic specs yield structured Status errors —
// never crashes — and the committed smoke spec parses to the exact shape
// the load CI leg replays. The runner itself is covered by
// tests/workload_runner_test.cc in the serve battery (it needs a live
// server).

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
  "root": "main",
  "nodes": {
    "main": {"op": "loop", "count": 3, "body": "ping"},
    "ping": {"op": "stats"}
  }
})";

TEST(WorkloadSpecTest, TinySpecParses) {
  auto spec = ParseWorkloadSpec(kTinySpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "tiny");
  EXPECT_EQ(spec->tenant, "load");  // default
  ASSERT_EQ(spec->nodes.size(), 2u);
  EXPECT_EQ(spec->root, spec->FindNode("main"));
  const WorkloadNode& main_node = spec->nodes[spec->FindNode("main")];
  EXPECT_EQ(main_node.kind, NodeKind::kLoop);
  EXPECT_EQ(main_node.count, 3u);
  EXPECT_EQ(main_node.body, spec->FindNode("ping"));
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
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "main",
    "nodes": {"main": {"op": "frobnicate"}}
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("unknown op 'frobnicate'"),
            std::string::npos)
      << spec.status().ToString();
}

TEST(WorkloadSpecTest, UnknownKeyRejected) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "main",
    "nodes": {
      "main": {"op": "random_choice", "children": ["a"], "wieghts": [1]},
      "a": {"op": "stats"}
    }
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("wieghts"), std::string::npos);
}

TEST(WorkloadSpecTest, UnknownNodeReferenceRejected) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "main",
    "nodes": {"main": {"op": "sequence", "children": ["nope"]}}
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("unknown node 'nope'"),
            std::string::npos);
}

TEST(WorkloadSpecTest, UnknownRootRejected) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "absent",
    "nodes": {"main": {"op": "stats"}}
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("absent"), std::string::npos);
}

TEST(WorkloadSpecTest, CyclicSpecRejected) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "nodes": {
      "a": {"op": "sequence", "children": ["b"]},
      "b": {"op": "sequence", "children": ["a"]}
    }
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().message().find("cycle"), std::string::npos);
}

TEST(WorkloadSpecTest, SelfLoopRejected) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "nodes": {"a": {"op": "loop", "count": 2, "body": "a"}}
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("cycle"), std::string::npos);
}

TEST(WorkloadSpecTest, OverDeepChainRejected) {
  // A 600-deep sequence chain trips the graph depth cap with a structured
  // error instead of exhausting the executor's stack.
  std::string nodes;
  for (int i = 0; i < 600; ++i) {
    if (i > 0) nodes += ",";
    nodes += "\"n" + std::to_string(i) + "\": {\"op\": \"sequence\", " +
             "\"children\": [\"n" + std::to_string(i + 1) + "\"]}";
  }
  nodes += ",\"n600\": {\"op\": \"stats\"}";
  auto spec = ParseWorkloadSpec("{\"name\": \"deep\", \"root\": \"n0\", "
                                "\"nodes\": {" + nodes + "}}");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kResourceExhausted);
}

TEST(WorkloadSpecTest, LoopNeedsExactlyOneOfCountAndDuration) {
  auto neither = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "nodes": {"a": {"op": "loop", "body": "b"}, "b": {"op": "stats"}}
  })");
  ASSERT_FALSE(neither.ok());
  auto both = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "nodes": {
      "a": {"op": "loop", "count": 1, "duration_s": 1, "body": "b"},
      "b": {"op": "stats"}
    }
  })");
  ASSERT_FALSE(both.ok());
  EXPECT_NE(both.status().message().find("exactly one"), std::string::npos);
}

TEST(WorkloadSpecTest, WeightsMustMatchChildren) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "nodes": {
      "a": {"op": "random_choice", "children": ["b", "c"], "weights": [1]},
      "b": {"op": "stats"}, "c": {"op": "stats"}
    }
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("weights"), std::string::npos);
}

TEST(WorkloadSpecTest, ZeroWeightRejected) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "nodes": {
      "a": {"op": "random_choice", "children": ["b"], "weights": [0]},
      "b": {"op": "stats"}
    }
  })");
  ASSERT_FALSE(spec.ok());
}

TEST(WorkloadSpecTest, OpNeedsExactlyOnePayloadSource) {
  auto none = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "nodes": {"a": {"op": "eval", "doc": "d"}}
  })");
  ASSERT_FALSE(none.ok());
  EXPECT_NE(none.status().message().find("exactly one payload source"),
            std::string::npos);
  auto two = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "generators": {"g": {"kind": "fuzz_pattern"}},
    "nodes": {"a": {"op": "eval", "doc": "d", "text": "t", "generator": "g"}}
  })");
  ASSERT_FALSE(two.ok());
}

TEST(WorkloadSpecTest, UnknownGeneratorKindRejected) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "generators": {"g": {"kind": "quantum_noise"}},
    "nodes": {"a": {"op": "stats"}}
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("quantum_noise"), std::string::npos);
}

TEST(WorkloadSpecTest, UnknownGeneratorReferenceRejected) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "nodes": {"a": {"op": "eval", "doc": "d", "generator": "ghost"}}
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("ghost"), std::string::npos);
}

TEST(WorkloadSpecTest, MissingPayloadFileRejected) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "nodes": {"a": {"op": "load", "doc": "d", "file": "no/such/file.xml"}}
  })");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("no/such/file.xml"),
            std::string::npos);
}

TEST(WorkloadSpecTest, NestedWorkloadParsesAndOverNestingRejected) {
  auto nested = ParseWorkloadSpec(R"({
    "name": "outer", "root": "sub",
    "nodes": {
      "sub": {"op": "workload", "spec": {
        "name": "inner", "root": "a",
        "nodes": {"a": {"op": "stats"}}
      }}
    }
  })");
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  const WorkloadNode& sub = nested->nodes[nested->FindNode("sub")];
  ASSERT_EQ(sub.kind, NodeKind::kWorkload);
  ASSERT_NE(sub.sub, nullptr);
  EXPECT_EQ(sub.sub->name, "inner");

  // Build a spec nested beyond the cap.
  std::string inner = R"({"name": "leaf", "root": "a",
                          "nodes": {"a": {"op": "stats"}}})";
  for (int i = 0; i < 10; ++i) {
    inner = "{\"name\": \"lvl" + std::to_string(i) +
            "\", \"root\": \"w\", \"nodes\": {\"w\": "
            "{\"op\": \"workload\", \"spec\": " + inner + "}}}";
  }
  auto too_deep = ParseWorkloadSpec(inner);
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), StatusCode::kResourceExhausted);
}

TEST(WorkloadSpecTest, BudgetFieldsParse) {
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "nodes": {
      "a": {"op": "eval", "doc": "d", "text": "t",
            "deadline_ms": 250, "max_states": 1000, "max_steps": 5,
            "max_memory_mb": 16}
    }
  })");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const WorkloadNode& a = spec->nodes[0];
  EXPECT_EQ(a.budget.deadline_ms, 250);
  EXPECT_EQ(a.budget.max_automaton_states, 1000);
  EXPECT_EQ(a.budget.max_steps, 5);
  EXPECT_EQ(a.budget.max_memory_bytes, int64_t{16} << 20);
}

// Golden parse of the committed smoke spec — the exact shape the load and
// chaos CI legs replay.
TEST(WorkloadSpecTest, GoldenSmokeSpecParses) {
  auto spec = LoadWorkloadSpecFile(SmokeSpecPath());
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "smoke");
  EXPECT_EQ(spec->tenant, "smoke");
  EXPECT_EQ(spec->nodes.size(), 11u);
  ASSERT_EQ(spec->generators.size(), 2u);
  EXPECT_EQ(spec->generators[0].name, "gen_pattern");
  EXPECT_EQ(spec->generators[0].kind, "fuzz_pattern");
  EXPECT_EQ(spec->generators[1].name, "gen_doc");
  EXPECT_EQ(spec->generators[1].kind, "exam_doc");
  EXPECT_EQ(spec->generators[1].exam_candidates, 8u);

  ASSERT_EQ(spec->setup.size(), 1u);
  EXPECT_EQ(spec->setup[0], spec->FindNode("load_exam"));
  const WorkloadNode& load_exam = spec->nodes[spec->FindNode("load_exam")];
  EXPECT_EQ(load_exam.kind, NodeKind::kLoad);
  // The "file" payload is inlined at parse time.
  EXPECT_NE(load_exam.text.find("<session>"), std::string::npos);

  const WorkloadNode& main_node = spec->nodes[spec->root];
  EXPECT_EQ(main_node.kind, NodeKind::kLoop);
  EXPECT_EQ(main_node.count, 120u);
  const WorkloadNode& mix = spec->nodes[spec->FindNode("mix")];
  ASSERT_EQ(mix.kind, NodeKind::kRandomChoice);
  ASSERT_EQ(mix.children.size(), 3u);
  EXPECT_EQ(mix.weights, (std::vector<uint64_t>{5, 3, 2}));
  const WorkloadNode& eval_fuzz = spec->nodes[spec->FindNode("eval_fuzz")];
  EXPECT_EQ(eval_fuzz.generator, 0u);  // gen_pattern
  const WorkloadNode& matrix = spec->nodes[spec->FindNode("small_matrix")];
  ASSERT_EQ(matrix.kind, NodeKind::kMatrix);
  EXPECT_EQ(matrix.fd_texts.size(), 1u);
  EXPECT_EQ(matrix.class_texts.size(), 1u);
}

TEST(WorkloadSpecTest, GoldenSoakSpecParses) {
  auto spec = LoadWorkloadSpecFile(std::string(RTP_EXAMPLES_WORKLOADS_DIR) +
                                   "/soak.json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const WorkloadNode& nested = spec->nodes[spec->FindNode("nested")];
  ASSERT_EQ(nested.kind, NodeKind::kWorkload);
  ASSERT_NE(nested.sub, nullptr);
  EXPECT_EQ(nested.sub->tenant, "soak-sub");
  const WorkloadNode& main_node = spec->nodes[spec->root];
  EXPECT_GT(main_node.duration_s, 0);
}

TEST(WorkloadSpecTest, GoldenChaosSpecParses) {
  auto spec = LoadWorkloadSpecFile(std::string(RTP_EXAMPLES_WORKLOADS_DIR) +
                                   "/chaos.json");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
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
  auto spec = ParseWorkloadSpec(R"({
    "name": "x", "root": "a",
    "generators": {"g": {"kind": "fuzz_pattern", "num_labels": 3}},
    "nodes": {"a": {"op": "eval", "doc": "d", "generator": "g"}}
  })");
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
