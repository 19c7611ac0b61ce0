// Request-scoped metric attribution: MetricDomain capture/flush
// semantics, ProfileScope phase + counter capture, and the concurrency
// contract that per-item profiles from a ParallelFor batch sum exactly to
// the registry delta for the whole batch. Lives in the `exec`-labeled
// binary so the TSan CI leg exercises the domain install/flush paths on
// real helper threads.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fd/fd_checker.h"
#include "fd/functional_dependency.h"
#include "obs/domain.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "workload/exam_generator.h"
#include "workload/paper_patterns.h"
#include "xml/xml_io.h"

namespace rtp {
namespace {

using obs::MetricDomain;
using obs::MetricsSnapshot;
using obs::QueryProfile;
using obs::Registry;

TEST(MetricDomainTest, CapturesCountersAndFlushesOnDestruction) {
  obs::Counter* c = Registry().FindOrCreateCounter("obsdomain.counter.flush");
  uint64_t before = c->value();
  {
    MetricDomain domain;
    ASSERT_EQ(MetricDomain::Current(), &domain);
    c->Add(5);
    // Captured in the domain, not yet in the global cell.
    EXPECT_EQ(c->value(), before);
    EXPECT_EQ(domain.CounterDelta("obsdomain.counter.flush"), 5u);
  }
  EXPECT_EQ(MetricDomain::Current(), nullptr);
  // The flush preserved the registry total.
  EXPECT_EQ(c->value(), before + 5);
}

TEST(MetricDomainTest, NestedDomainsCascadeToParent) {
  obs::Counter* c = Registry().FindOrCreateCounter("obsdomain.counter.nested");
  uint64_t before = c->value();
  {
    MetricDomain outer;
    {
      MetricDomain inner;
      c->Add(3);
      EXPECT_EQ(inner.CounterDelta("obsdomain.counter.nested"), 3u);
      EXPECT_EQ(outer.CounterDelta("obsdomain.counter.nested"), 0u);
    }
    // The inner flush cascaded into the outer domain, not the registry.
    EXPECT_EQ(outer.CounterDelta("obsdomain.counter.nested"), 3u);
    EXPECT_EQ(c->value(), before);
    c->Add(2);
    EXPECT_EQ(outer.CounterDelta("obsdomain.counter.nested"), 5u);
  }
  EXPECT_EQ(c->value(), before + 5);
}

TEST(MetricDomainTest, CapturesHistogramsAndMergesGlobally) {
  obs::Histogram* h = Registry().FindOrCreateHistogram("obsdomain.hist.flush");
  h->Reset();
  {
    MetricDomain domain;
    h->Record(10);
    h->Record(30);
    EXPECT_EQ(h->count(), 0u);
    auto deltas = domain.HistogramDeltas();
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].first, "obsdomain.hist.flush");
    EXPECT_EQ(deltas[0].second.count, 2u);
    EXPECT_EQ(deltas[0].second.sum, 40u);
  }
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->sum(), 40u);
  EXPECT_EQ(h->min(), 10u);
  EXPECT_EQ(h->max(), 30u);
}

TEST(MetricDomainTest, CaptureIsPerThread) {
  obs::Counter* c = Registry().FindOrCreateCounter("obsdomain.counter.thread");
  uint64_t before = c->value();
  {
    MetricDomain domain;
    std::thread other([c] { c->Add(7); });
    other.join();
    // The other thread had no domain installed, so its add went global.
    EXPECT_EQ(domain.CounterDelta("obsdomain.counter.thread"), 0u);
    EXPECT_EQ(c->value(), before + 7);
  }
  EXPECT_EQ(c->value(), before + 7);
}

TEST(MetricDomainTest, CapturesTraceSpansWithNesting) {
  MetricDomain domain;
  {
    RTP_PHASE("obsdomain.span.outer");
    { RTP_PHASE("obsdomain.span.inner"); }
  }
  const std::vector<obs::CapturedSpan>& spans = domain.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Preorder: the outer span opened first.
  EXPECT_EQ(spans[0].name, "obsdomain.span.outer");
  EXPECT_EQ(spans[1].name, "obsdomain.span.inner");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_GE(spans[0].dur_ns, spans[1].dur_ns);
}

// The live region counted by walking the document: the root, and every
// node reached through children whose label some edge DFA can move on.
size_t RegionSize(const pattern::TreePattern& pattern,
                  const xml::Document& doc) {
  auto readable = [&](LabelId a) {
    for (pattern::PatternNodeId w = 1; w < pattern.NumNodes(); ++w) {
      const regex::Dfa& dfa = pattern.edge(w).dfa();
      for (int32_t s = 0; s < dfa.NumStates(); ++s) {
        if (dfa.Next(s, a) != regex::kDeadState) return true;
      }
    }
    return false;
  };
  size_t rows = 0;
  doc.Visit([&](xml::NodeId n) {
    if (n != doc.root() && !readable(doc.label(n))) return false;
    ++rows;
    return true;
  });
  return rows;
}

TEST(ProfileScopeTest, NullOutputIsInert) {
  obs::ProfileScope scope("noop", nullptr);
  EXPECT_EQ(MetricDomain::Current(), nullptr);
}

TEST(ProfileScopeTest, ProfiledEvaluationFillsPhasesAndCounters) {
  Alphabet alphabet;
  pattern::ParsedPattern parsed = workload::PaperR3(&alphabet);

  // Fixed overheads (first allocations, clock reads) eat into phase
  // coverage at microsecond scale, so grow the document until the
  // operation is comfortably past a millisecond before asserting the 90%
  // coverage bound.
  double best_coverage = 0.0;
  for (uint32_t candidates : {200u, 800u, 3200u}) {
    workload::ExamWorkloadParams params;
    params.num_candidates = candidates;
    params.seed = candidates;
    xml::Document doc = workload::GenerateExamDocument(&alphabet, params);

    QueryProfile profile;
    auto selected = pattern::EvaluateSelected(parsed.pattern, doc, &profile);
    EXPECT_FALSE(selected.empty());
    EXPECT_EQ(profile.op, "pattern.EvaluateSelected");
    EXPECT_EQ(profile.status, "OK");
    ASSERT_FALSE(profile.phases.empty());

    bool has_build = false;
    bool has_enumerate = false;
    for (const obs::CapturedSpan& s : profile.phases) {
      has_build |= s.name == "pattern.build_tables";
      has_enumerate |= s.name == "pattern.enumerate";
    }
    EXPECT_TRUE(has_build);
    EXPECT_TRUE(has_enumerate);

    EXPECT_GT(profile.CounterDelta("pattern.eval.enumerations"), 0u);
    EXPECT_EQ(profile.CounterDelta("pattern.eval.table_rows"),
              RegionSize(parsed.pattern, doc));

    // The structured renderings carry the same content.
    std::string json = profile.ToJson();
    EXPECT_NE(json.find("\"op\":\"pattern.EvaluateSelected\""),
              std::string::npos);
    EXPECT_NE(json.find("pattern.build_tables"), std::string::npos);
    EXPECT_NE(profile.ToText().find("pattern.enumerate"), std::string::npos);

    // Internal consistency: root phases never exceed the wall time...
    ASSERT_LE(profile.RootPhaseTotalNs(), profile.wall_ns);
    double coverage =
        profile.wall_ns == 0
            ? 0.0
            : static_cast<double>(profile.RootPhaseTotalNs()) /
                  static_cast<double>(profile.wall_ns);
    best_coverage = std::max(best_coverage, coverage);
    // ...and on a large enough document they cover at least 90% of it.
    if (profile.wall_ns >= 1'000'000 && coverage >= 0.9) return;
  }
  ADD_FAILURE() << "root phases never covered 90% of the operation wall "
                   "time; best coverage "
                << best_coverage;
}

// One table row per live-region node of examples/data/exam.xml, the same
// count on every build; a `_*` edge reads every label, so its region is
// the whole tree.
TEST(ProfileScopeTest, TableRowsCountTheLiveRegion) {
  Alphabet alphabet;
  std::ifstream in(std::string(RTP_EXAMPLES_DATA_DIR) + "/exam.xml");
  std::stringstream text;
  text << in.rdbuf();
  auto doc = xml::ParseXml(&alphabet, text.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto wildcard =
      pattern::ParsePattern(&alphabet, "root { s = _*/rank; } select s;");
  ASSERT_TRUE(wildcard.ok()) << wildcard.status().ToString();

  struct Case {
    const char* name;
    pattern::ParsedPattern parsed;
    size_t rows;
  };
  // The root, the session and its 2 candidates, then per pattern: 2
  // levels and 1 toBePassed; 4 exams with 3 children each; 2 levels and
  // 1 firstJob-Year.
  const Case cases[] = {
      {"update_u", workload::PaperUpdateU(&alphabet), 7},
      {"fd1", workload::PaperFd1(&alphabet), 20},
      {"fd5", workload::PaperFd5(&alphabet), 7},
      {"_*/rank", *wildcard, doc->LiveNodeCount()},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(RegionSize(c.parsed.pattern, *doc), c.rows) << c.name;
    for (int build = 0; build < 2; ++build) {
      QueryProfile profile;
      pattern::EvaluateSelected(c.parsed.pattern, *doc, &profile);
      EXPECT_EQ(profile.CounterDelta("pattern.eval.table_rows"), c.rows)
          << c.name;
    }
  }
}

TEST(ProfileScopeTest, GuardedCheckReportsBudgetConsumption) {
  Alphabet alphabet;
  auto fd = fd::FunctionalDependency::FromParsed(workload::PaperFd1(&alphabet));
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  workload::ExamWorkloadParams params;
  params.num_candidates = 6;
  xml::Document doc = workload::GenerateExamDocument(&alphabet, params);

  QueryProfile profile;
  fd::CheckOptions options;
  options.budget.max_steps = 1'000'000;
  options.budget.deadline_ms = 60'000;
  options.profile = &profile;
  fd::CheckResult result = fd::CheckFd(fd.value(), doc, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  EXPECT_EQ(profile.op, "fd.CheckFd");
  EXPECT_TRUE(profile.guard.guarded);
  EXPECT_GT(profile.guard.steps, 0);
  EXPECT_EQ(profile.guard.budget_max_steps, 1'000'000);
  EXPECT_EQ(profile.guard.budget_deadline_ms, 60'000);
  EXPECT_GT(profile.CounterDelta("fd.check.calls"), 0u);
}

// ---------------------------------------------------------------------------
// Concurrent attribution: per-item profiles from a jobs=8 batch sum
// exactly to the registry delta for every counter recorded inside the
// per-item scopes (the pipeline prefixes below; ParallelFor's own
// exec.pool.* counters are recorded by the calling thread, outside the
// item scopes, by design).

std::map<std::string, uint64_t> SumProfileCounters(
    const std::vector<QueryProfile>& profiles,
    const std::vector<std::string>& prefixes) {
  std::map<std::string, uint64_t> sums;
  for (const QueryProfile& p : profiles) {
    for (const auto& [name, value] : p.counters) {
      for (const std::string& prefix : prefixes) {
        if (name.rfind(prefix, 0) == 0) {
          sums[name] += value;
          break;
        }
      }
    }
  }
  return sums;
}

std::map<std::string, uint64_t> RegistryDeltaFor(
    const MetricsSnapshot& delta, const std::vector<std::string>& prefixes) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : delta.counters) {
    if (value == 0) continue;
    // *.batches counts the batch call itself and is recorded outside the
    // per-item scopes, like ParallelFor's exec.pool.* counters.
    if (name.size() >= 8 && name.rfind(".batches") == name.size() - 8) {
      continue;
    }
    for (const std::string& prefix : prefixes) {
      if (name.rfind(prefix, 0) == 0) {
        out[name] = value;
        break;
      }
    }
  }
  return out;
}

TEST(BatchAttributionTest, FdBatchProfilesSumToRegistryDelta) {
  Alphabet alphabet;
  auto fd = fd::FunctionalDependency::FromParsed(workload::PaperFd1(&alphabet));
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  std::vector<xml::Document> docs;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    workload::ExamWorkloadParams params;
    params.num_candidates = 8;
    params.exams_per_candidate = 3;
    params.num_disciplines = 2;
    params.num_marks = 3;
    params.consistent_ranks = (seed % 2 == 0);
    params.seed = seed;
    docs.push_back(workload::GenerateExamDocument(&alphabet, params));
  }
  std::vector<const xml::Document*> ptrs;
  for (const auto& doc : docs) ptrs.push_back(&doc);

  const std::vector<std::string> prefixes = {"fd.check.", "pattern.eval."};
  MetricsSnapshot before = obs::TakeSnapshot();

  fd::BatchCheckOptions options;
  options.jobs = 8;
  std::vector<QueryProfile> profiles;
  options.profiles = &profiles;
  std::vector<fd::CheckResult> results =
      fd::CheckFdBatch(fd.value(), ptrs, options);

  MetricsSnapshot delta = obs::SnapshotDelta(before, obs::TakeSnapshot());
  ASSERT_EQ(results.size(), ptrs.size());
  ASSERT_EQ(profiles.size(), ptrs.size());
  for (size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(profiles[i].op, "fd.CheckFd") << i;
    EXPECT_GT(profiles[i].wall_ns, 0u) << i;
    EXPECT_GT(profiles[i].CounterDelta("fd.check.calls"), 0u) << i;
  }

  EXPECT_EQ(SumProfileCounters(profiles, prefixes),
            RegistryDeltaFor(delta, prefixes));
}

TEST(BatchAttributionTest, EvalBatchProfilesSumToRegistryDelta) {
  Alphabet alphabet;
  pattern::ParsedPattern parsed = workload::PaperR3(&alphabet);

  std::vector<xml::Document> docs;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    workload::ExamWorkloadParams params;
    params.num_candidates = 5 + static_cast<uint32_t>(seed);
    params.seed = seed * 13;
    docs.push_back(workload::GenerateExamDocument(&alphabet, params));
  }
  std::vector<const xml::Document*> ptrs;
  for (const auto& doc : docs) ptrs.push_back(&doc);

  const std::vector<std::string> prefixes = {"pattern.eval."};
  MetricsSnapshot before = obs::TakeSnapshot();

  pattern::EvalBatchOptions options;
  options.jobs = 8;
  std::vector<QueryProfile> profiles;
  options.profiles = &profiles;
  auto results = pattern::EvaluateSelectedBatch(parsed.pattern, ptrs, options);

  MetricsSnapshot delta = obs::SnapshotDelta(before, obs::TakeSnapshot());
  ASSERT_EQ(results.size(), ptrs.size());
  ASSERT_EQ(profiles.size(), ptrs.size());
  for (size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(profiles[i].op, "pattern.EvaluateSelected") << i;
    EXPECT_GT(profiles[i].wall_ns, 0u) << i;
    EXPECT_FALSE(results[i].empty()) << i;
  }

  EXPECT_EQ(SumProfileCounters(profiles, prefixes),
            RegistryDeltaFor(delta, prefixes));
}

}  // namespace
}  // namespace rtp
