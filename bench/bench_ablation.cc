// Experiment E10 — ablations for the design choices DESIGN.md calls out:
//  (a) edge-DFA minimization: its effect on pattern-automaton and
//      criterion-product sizes (the |A_e| factors of Proposition 3),
//  (b) the two-phase match-table evaluator versus the Definition-2-literal
//      reference enumeration (why table-guided evaluation matters),
//  (c) early-stop FD checking versus full enumeration on violating
//      documents.

#include <benchmark/benchmark.h>

#include "automata/pattern_compiler.h"
#include "automata/product.h"
#include "bench_common.h"
#include "fd/fd_checker.h"
#include "pattern/evaluator.h"
#include "pattern/reference_evaluator.h"
#include "regex/regex_parser.h"
#include "workload/random_pattern.h"

namespace rtp::bench {
namespace {

// (a) Minimization ablation: build the same chain pattern with minimized
// and raw edge DFAs; report both automaton sizes.
pattern::TreePattern ChainPattern(Alphabet* alphabet, int depth,
                                  const std::string& step, bool minimized) {
  pattern::TreePattern tree;
  pattern::PatternNodeId cur = pattern::TreePattern::kRoot;
  for (int i = 0; i < depth; ++i) {
    auto ast = regex::ParseRegex(alphabet, step);
    RTP_CHECK(ast.ok());
    regex::Regex re = minimized
                          ? regex::Regex::FromAst(std::move(*ast))
                          : regex::Regex::FromAstUnminimized(std::move(*ast));
    cur = tree.AddChild(cur, std::move(re));
  }
  tree.AddSelected(cur);
  return tree;
}

void BM_AblationMinimization(benchmark::State& state) {
  Alphabet alphabet;
  int depth = static_cast<int>(state.range(0));
  // A regex whose Thompson DFA is far from minimal.
  const std::string step = "(a|b)/(a|b)|a/(b|a)";
  pattern::TreePattern min_tree = ChainPattern(&alphabet, depth, step, true);
  pattern::TreePattern raw_tree = ChainPattern(&alphabet, depth, step, false);

  int64_t min_size = 0;
  int64_t raw_size = 0;
  for (auto _ : state) {
    automata::HedgeAutomaton min_automaton =
        CompilePattern(min_tree, automata::MarkMode::kNone);
    automata::HedgeAutomaton raw_automaton =
        CompilePattern(raw_tree, automata::MarkMode::kNone);
    min_size = min_automaton.TotalSize();
    raw_size = raw_automaton.TotalSize();
    benchmark::DoNotOptimize(min_automaton);
    benchmark::DoNotOptimize(raw_automaton);
  }
  state.counters["minimized_size"] = static_cast<double>(min_size);
  state.counters["raw_size"] = static_cast<double>(raw_size);
  state.counters["inflation"] =
      static_cast<double>(raw_size) / static_cast<double>(min_size);
}
BENCHMARK(BM_AblationMinimization)->DenseRange(1, 7, 2);

void BM_AblationMinimizationProduct(benchmark::State& state) {
  Alphabet alphabet;
  int depth = static_cast<int>(state.range(0));
  const std::string step = "(a|b)/(a|b)|a/(b|a)";
  bool minimized = state.range(1) != 0;
  pattern::TreePattern fd_tree =
      ChainPattern(&alphabet, depth, step, minimized);
  pattern::TreePattern u_tree = ChainPattern(&alphabet, 1, "a", minimized);

  int64_t product_size = 0;
  for (auto _ : state) {
    automata::HedgeAutomaton a = CompilePattern(
        fd_tree, automata::MarkMode::kTraceAndSelectedSubtrees);
    automata::HedgeAutomaton b =
        CompilePattern(u_tree, automata::MarkMode::kSelectedImagesOnly);
    automata::HedgeAutomaton meet = automata::MeetProduct(a, b);
    product_size = meet.TotalSize();
    bool empty = meet.IsEmptyLanguage();
    benchmark::DoNotOptimize(empty);
  }
  state.counters["product_size"] = static_cast<double>(product_size);
  state.counters["minimized"] = minimized ? 1 : 0;
}
BENCHMARK(BM_AblationMinimizationProduct)
    ->Args({2, 1})
    ->Args({2, 0})
    ->Args({4, 1})
    ->Args({4, 0});

// (b) Table-guided enumeration vs the literal reference enumeration.
void BM_AblationTablesVsReference(benchmark::State& state) {
  Alphabet alphabet;
  bool use_tables = state.range(1) != 0;
  workload::RandomTreeParams tree_params;
  tree_params.seed = 11;
  tree_params.text_leaf_percent = 0;
  tree_params.max_nodes = static_cast<uint32_t>(state.range(0));
  xml::Document doc = workload::GenerateRandomTree(&alphabet, tree_params);
  pattern::TreePattern pattern =
      MustParsePattern(&alphabet, "root { a = _*/l0; b = _*/l1; } select a, b;")
          .pattern;

  size_t count = 0;
  for (auto _ : state) {
    if (use_tables) {
      pattern::MatchTables tables = pattern::MatchTables::Build(pattern, doc);
      pattern::MappingEnumerator enumerator(tables);
      count = enumerator.Count();
    } else {
      count = pattern::ReferenceEnumerateMappings(pattern, doc).size();
    }
    benchmark::DoNotOptimize(count);
  }
  state.counters["mappings"] = static_cast<double>(count);
  state.counters["tables"] = use_tables ? 1 : 0;
}
BENCHMARK(BM_AblationTablesVsReference)
    ->Args({10, 1})
    ->Args({10, 0})
    ->Args({20, 1})
    ->Args({20, 0})
    ->Args({30, 1})
    ->Args({30, 0});

// (c) Early-stop vs full-enumeration FD checking on violating documents.
void BM_AblationEarlyStop(benchmark::State& state) {
  Alphabet alphabet;
  bool stop_early = state.range(0) != 0;
  workload::ExamWorkloadParams params;
  params.num_candidates = 2048;
  params.consistent_ranks = false;  // violations likely
  xml::Document doc = workload::GenerateExamDocument(&alphabet, params);
  fd::FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet));
  fd::CheckOptions options;
  options.stop_at_first_violation = stop_early;
  size_t mappings = 0;
  for (auto _ : state) {
    fd::CheckResult result = fd::CheckFd(fd1, doc, options);
    mappings = result.num_mappings;
    benchmark::DoNotOptimize(result);
  }
  state.counters["mappings_visited"] = static_cast<double>(mappings);
  state.counters["early_stop"] = stop_early ? 1 : 0;
}
BENCHMARK(BM_AblationEarlyStop)->Arg(1)->Arg(0);

}  // namespace
}  // namespace rtp::bench
