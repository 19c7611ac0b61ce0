// Experiment E5 — pattern evaluation (Definition 2): match-table
// construction and mapping enumeration for the paper's R1/R2/R3 shapes, and
// the automaton-based membership alternative.

#include <benchmark/benchmark.h>

#include "automata/pattern_compiler.h"
#include "bench_common.h"
#include "pattern/evaluator.h"

namespace rtp::bench {
namespace {

void TablesBenchmark(benchmark::State& state,
                     pattern::ParsedPattern (*maker)(Alphabet*)) {
  Alphabet alphabet;
  uint32_t candidates = static_cast<uint32_t>(state.range(0));
  xml::Document doc = MakeExamDocument(&alphabet, candidates);
  pattern::ParsedPattern p = maker(&alphabet);
  // Built once, so each iteration times the tables alone.
  std::shared_ptr<const xml::DocIndex> index = doc.Snapshot();
  bool has_trace = false;
  for (auto _ : state) {
    pattern::MatchTables tables =
        pattern::MatchTables::Build(p.pattern, *index);
    has_trace = tables.HasTrace();
    benchmark::DoNotOptimize(tables);
  }
  state.counters["nodes"] = static_cast<double>(doc.LiveNodeCount());
  state.counters["has_trace"] = has_trace ? 1 : 0;
  state.SetComplexityN(static_cast<int64_t>(doc.LiveNodeCount()));
}

void BM_MatchTablesR1(benchmark::State& state) {
  TablesBenchmark(state, workload::PaperR1);
}
BENCHMARK(BM_MatchTablesR1)->Range(8, 32768)->Complexity();

void BM_MatchTablesR3(benchmark::State& state) {
  TablesBenchmark(state, workload::PaperR3);
}
BENCHMARK(BM_MatchTablesR3)->Range(8, 32768)->Complexity();

// Full enumeration; R2 is linear in exams (pairs within candidates), R1 is
// quadratic across candidates, so R1 runs on smaller documents.
void EnumerationBenchmark(benchmark::State& state,
                          pattern::ParsedPattern (*maker)(Alphabet*)) {
  Alphabet alphabet;
  uint32_t candidates = static_cast<uint32_t>(state.range(0));
  xml::Document doc = MakeExamDocument(&alphabet, candidates);
  pattern::ParsedPattern p = maker(&alphabet);
  pattern::MatchTables tables = pattern::MatchTables::Build(p.pattern, doc);
  size_t count = 0;
  for (auto _ : state) {
    pattern::MappingEnumerator enumerator(tables);
    count = enumerator.Count();
    benchmark::DoNotOptimize(count);
  }
  state.counters["mappings"] = static_cast<double>(count);
  state.SetComplexityN(candidates);
}

void BM_EnumerateR1(benchmark::State& state) {
  EnumerationBenchmark(state, workload::PaperR1);
}
BENCHMARK(BM_EnumerateR1)->RangeMultiplier(4)->Range(4, 256)->Complexity();

void BM_EnumerateR2(benchmark::State& state) {
  EnumerationBenchmark(state, workload::PaperR2);
}
BENCHMARK(BM_EnumerateR2)->Range(8, 8192)->Complexity();

void BM_EnumerateR3(benchmark::State& state) {
  EnumerationBenchmark(state, workload::PaperR3);
}
BENCHMARK(BM_EnumerateR3)->Range(8, 8192)->Complexity();

// Automaton-run membership as an alternative to match tables.
void BM_AutomatonMembershipR3(benchmark::State& state) {
  Alphabet alphabet;
  uint32_t candidates = static_cast<uint32_t>(state.range(0));
  xml::Document doc = MakeExamDocument(&alphabet, candidates);
  pattern::ParsedPattern p = workload::PaperR3(&alphabet);
  automata::HedgeAutomaton automaton =
      automata::CompilePattern(p.pattern, automata::MarkMode::kNone);
  bool accepts = false;
  for (auto _ : state) {
    accepts = automaton.Accepts(doc);
    benchmark::DoNotOptimize(accepts);
  }
  state.counters["accepts"] = accepts ? 1 : 0;
  state.SetComplexityN(static_cast<int64_t>(doc.LiveNodeCount()));
}
BENCHMARK(BM_AutomatonMembershipR3)->Range(8, 8192)->Complexity();

// Deep descendant-style pattern (wildcard star) on deep documents.
void BM_DescendantPattern(benchmark::State& state) {
  Alphabet alphabet;
  xml::Document doc(&alphabet);
  // A comb: chain of depth N with a small fanout at each level.
  int depth = static_cast<int>(state.range(0));
  xml::NodeId cur = doc.AddElement(doc.root(), "lvl");
  for (int i = 0; i < depth; ++i) {
    doc.AddElement(cur, "leaf");
    cur = doc.AddElement(cur, "lvl");
  }
  doc.AddElement(cur, "target");

  pattern::ParsedPattern p =
      MustParsePattern(&alphabet, "root { s = _*/target; } select s;");
  size_t count = 0;
  for (auto _ : state) {
    pattern::MatchTables tables = pattern::MatchTables::Build(p.pattern, doc);
    pattern::MappingEnumerator enumerator(tables);
    count = enumerator.Count();
    benchmark::DoNotOptimize(count);
  }
  state.counters["mappings"] = static_cast<double>(count);
  state.SetComplexityN(depth);
}
BENCHMARK(BM_DescendantPattern)->RangeMultiplier(4)->Range(16, 4096)->Complexity();

}  // namespace
}  // namespace rtp::bench
