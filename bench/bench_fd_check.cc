// Experiment E4 — FD satisfaction checking (Definition 5): cost of
// CheckFd as the document grows, for the paper's fd1/fd2/fd3 (different
// mapping structures: linear per exam, per exam with node-equality target,
// quadratic in exams per candidate).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "fd/fd_checker.h"

namespace rtp::bench {
namespace {

void FdCheckBenchmark(benchmark::State& state,
                      pattern::ParsedPattern (*maker)(Alphabet*)) {
  Alphabet alphabet;
  uint32_t candidates = static_cast<uint32_t>(state.range(0));
  xml::Document doc = MakeExamDocument(&alphabet, candidates);
  fd::FunctionalDependency fd = MustFd(maker(&alphabet));
  size_t mappings = 0;
  bool satisfied = false;
  for (auto _ : state) {
    fd::CheckResult result = fd::CheckFd(fd, doc);
    mappings = result.num_mappings;
    satisfied = result.satisfied;
    benchmark::DoNotOptimize(result);
  }
  state.counters["nodes"] = static_cast<double>(doc.LiveNodeCount());
  state.counters["mappings"] = static_cast<double>(mappings);
  state.counters["satisfied"] = satisfied ? 1 : 0;
  state.SetComplexityN(static_cast<int64_t>(doc.LiveNodeCount()));
}

void BM_CheckFd1(benchmark::State& state) {
  FdCheckBenchmark(state, workload::PaperFd1);
}
BENCHMARK(BM_CheckFd1)->Range(8, 32768)->Complexity();

void BM_CheckFd2(benchmark::State& state) {
  FdCheckBenchmark(state, workload::PaperFd2);
}
BENCHMARK(BM_CheckFd2)->Range(8, 32768)->Complexity();

void BM_CheckFd3(benchmark::State& state) {
  FdCheckBenchmark(state, workload::PaperFd3);
}
BENCHMARK(BM_CheckFd3)->Range(8, 8192)->Complexity();

void BM_CheckFd5(benchmark::State& state) {
  FdCheckBenchmark(state, workload::PaperFd5);
}
BENCHMARK(BM_CheckFd5)->Range(8, 32768)->Complexity();

// Violating documents: early-exit behavior of stop_at_first_violation.
void BM_CheckFd1Violating(benchmark::State& state) {
  Alphabet alphabet;
  uint32_t candidates = static_cast<uint32_t>(state.range(0));
  workload::ExamWorkloadParams params;
  params.num_candidates = candidates;
  params.consistent_ranks = false;  // random ranks: fd1 violations likely
  xml::Document doc = workload::GenerateExamDocument(&alphabet, params);
  fd::FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet));
  bool satisfied = true;
  for (auto _ : state) {
    fd::CheckResult result = fd::CheckFd(fd1, doc);
    satisfied = result.satisfied;
    benchmark::DoNotOptimize(result);
  }
  state.counters["satisfied"] = satisfied ? 1 : 0;
  state.SetComplexityN(candidates);
}
BENCHMARK(BM_CheckFd1Violating)->Range(64, 16384)->Complexity();

// Batch checking across documents (one per corpus member, distinct seeds),
// swept over jobs: the fleet-of-documents scenario CheckFdBatch
// parallelizes. Results are identical for every jobs value; on a
// single-core host the sweep only measures thread start-up overhead.
void BM_CheckFd1BatchJobs(benchmark::State& state) {
  Alphabet alphabet;
  fd::FunctionalDependency fd1 = MustFd(workload::PaperFd1(&alphabet));
  std::vector<xml::Document> docs;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    docs.push_back(MakeExamDocument(&alphabet, /*candidates=*/256, seed));
  }
  std::vector<const xml::Document*> ptrs;
  for (const auto& doc : docs) ptrs.push_back(&doc);
  fd::BatchCheckOptions options;
  options.jobs = static_cast<int>(state.range(0));
  size_t satisfied = 0;
  for (auto _ : state) {
    std::vector<fd::CheckResult> results = fd::CheckFdBatch(fd1, ptrs, options);
    satisfied = 0;
    for (const auto& r : results) satisfied += r.satisfied ? 1 : 0;
    benchmark::DoNotOptimize(results);
  }
  state.counters["jobs"] = static_cast<double>(options.jobs);
  state.counters["docs"] = static_cast<double>(docs.size());
  state.counters["satisfied"] = static_cast<double>(satisfied);
}
BENCHMARK(BM_CheckFd1BatchJobs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Exams-per-candidate sweep for the quadratic fd3.
void BM_CheckFd3ExamFanout(benchmark::State& state) {
  Alphabet alphabet;
  workload::ExamWorkloadParams params;
  params.num_candidates = 64;
  params.exams_per_candidate = static_cast<uint32_t>(state.range(0));
  xml::Document doc = workload::GenerateExamDocument(&alphabet, params);
  fd::FunctionalDependency fd3 = MustFd(workload::PaperFd3(&alphabet));
  size_t mappings = 0;
  for (auto _ : state) {
    fd::CheckResult result = fd::CheckFd(fd3, doc);
    mappings = result.num_mappings;
    benchmark::DoNotOptimize(result);
  }
  state.counters["mappings"] = static_cast<double>(mappings);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CheckFd3ExamFanout)->RangeMultiplier(2)->Range(2, 32)->Complexity();

}  // namespace
}  // namespace rtp::bench
