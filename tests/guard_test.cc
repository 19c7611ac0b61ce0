// Tests for rtp::guard: budget axes, sticky trips, cancellation, scoped
// installation, parser depth caps, per-item degradation of the batch
// APIs, per-cell degradation of the independence matrix on the PSPACE
// hardness gadget, and fault injection through failpoints.

#include "guard/guard.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "fd/fd_checker.h"
#include "fd/functional_dependency.h"
#include "guard/failpoints.h"
#include "independence/criterion.h"
#include "independence/hardness.h"
#include "independence/matrix.h"
#include "obs/metrics.h"
#include "pattern/evaluator.h"
#include "pattern/pattern_parser.h"
#include "regex/regex.h"
#include "xml/document.h"
#include "xml/xml_io.h"

namespace rtp {
namespace {

uint64_t CounterValue(const std::string& name) {
  const obs::Counter* counter = obs::Registry().FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

TEST(GuardTest, UnlimitedBudgetNeverTrips) {
  guard::ExecutionBudget budget;
  EXPECT_FALSE(budget.Limited());
  guard::GuardContext ctx(budget);
  for (int i = 0; i < 10'000; ++i) ctx.Poll();
  ctx.AddStates(1'000'000);
  ctx.AddMemory(int64_t{1} << 40);
  EXPECT_TRUE(ctx.ok());
  EXPECT_TRUE(ctx.status().ok());
}

TEST(GuardTest, StepQuotaTrips) {
  guard::ExecutionBudget budget;
  budget.max_steps = 10;
  guard::GuardContext ctx(budget);
  for (int i = 0; i < 10; ++i) ctx.Poll();
  EXPECT_TRUE(ctx.ok());  // exactly at the quota is still fine
  ctx.Poll();
  EXPECT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.steps(), 11);
}

TEST(GuardTest, StateQuotaTrips) {
  guard::ExecutionBudget budget;
  budget.max_automaton_states = 100;
  guard::GuardContext ctx(budget);
  ctx.AddStates(100);
  EXPECT_TRUE(ctx.ok());
  ctx.AddStates(1);
  EXPECT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(ctx.status().message().find("state quota"), std::string::npos);
}

TEST(GuardTest, MemoryQuotaTrips) {
  guard::ExecutionBudget budget;
  budget.max_memory_bytes = 1 << 20;
  guard::GuardContext ctx(budget);
  ctx.AddMemory(1 << 20);
  EXPECT_TRUE(ctx.ok());
  ctx.AddMemory(1);
  EXPECT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(ctx.status().message().find("memory budget"), std::string::npos);
}

TEST(GuardTest, DeadlineTrips) {
  guard::ExecutionBudget budget;
  budget.deadline_ms = 5;
  guard::GuardContext ctx(budget);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The deadline is checked every 256th poll; a few hundred polls are
  // guaranteed to cross the check interval.
  for (int i = 0; i < 1024 && ctx.ok(); ++i) ctx.Poll();
  EXPECT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GuardTest, CancelTokenTrips) {
  guard::CancelToken cancel;
  guard::GuardContext ctx(guard::ExecutionBudget{}, &cancel);
  ctx.Poll();
  EXPECT_TRUE(ctx.ok());
  cancel.Cancel();
  ctx.Poll();
  EXPECT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.status().code(), StatusCode::kCancelled);
}

TEST(GuardTest, FirstTripWinsAndIsSticky) {
  guard::ExecutionBudget budget;
  budget.max_steps = 1;
  guard::GuardContext ctx(budget);
  ctx.Poll();
  ctx.Poll();  // trips on the step quota
  ASSERT_FALSE(ctx.ok());
  Status first = ctx.status();
  ctx.ForceTrip(StatusCode::kCancelled, "late cancellation");
  EXPECT_EQ(ctx.status().code(), first.code());
  EXPECT_EQ(ctx.status().message(), first.message());
}

TEST(GuardTest, ScopedGuardInstallsAndRestores) {
  EXPECT_FALSE(guard::Active());
  EXPECT_TRUE(guard::CurrentStatus().ok());
  guard::ExecutionBudget budget;
  budget.max_steps = 2;
  {
    guard::GuardContext ctx(budget);
    guard::ScopedGuard scope(&ctx);
    EXPECT_TRUE(guard::Active());
    EXPECT_EQ(guard::Current(), &ctx);
    EXPECT_TRUE(guard::KeepGoing());
    EXPECT_TRUE(guard::KeepGoing());
    EXPECT_FALSE(guard::KeepGoing());  // third poll exceeds max_steps=2
    EXPECT_FALSE(guard::Ok());
    EXPECT_EQ(guard::CurrentStatus().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_FALSE(guard::Active());
  EXPECT_TRUE(guard::KeepGoing());
  EXPECT_TRUE(guard::CurrentStatus().ok());
}

TEST(GuardTest, OptionalGuardScopeEngagesOnlyWhenLimited) {
  {
    guard::OptionalGuardScope scope(guard::ExecutionBudget{}, nullptr);
    EXPECT_FALSE(scope.engaged());
    EXPECT_FALSE(guard::Active());
  }
  guard::ExecutionBudget budget;
  budget.deadline_ms = 60'000;
  {
    guard::OptionalGuardScope scope(budget, nullptr);
    EXPECT_TRUE(scope.engaged());
    EXPECT_TRUE(guard::Active());
  }
  EXPECT_FALSE(guard::Active());
  guard::CancelToken cancel;
  {
    guard::OptionalGuardScope scope(guard::ExecutionBudget{}, &cancel);
    EXPECT_TRUE(scope.engaged());  // a cancel token alone engages the scope
  }
  EXPECT_FALSE(guard::Active());
}

TEST(GuardTest, TripsAreCountedInObsMetrics) {
#ifdef RTP_OBS_DISABLED
  GTEST_SKIP() << "RTP_OBS_DISABLED: trip counters compiled out";
#endif
  uint64_t resource_before = CounterValue("guard.trips.resource");
  uint64_t cancelled_before = CounterValue("guard.trips.cancelled");
  uint64_t contexts_before = CounterValue("guard.contexts");
  {
    guard::ExecutionBudget budget;
    budget.max_steps = 1;
    guard::GuardContext ctx(budget);
    ctx.Poll();
    ctx.Poll();
    ASSERT_FALSE(ctx.ok());
  }
  {
    guard::CancelToken cancel;
    cancel.Cancel();
    guard::GuardContext ctx(guard::ExecutionBudget{}, &cancel);
    ctx.Poll();
    ASSERT_FALSE(ctx.ok());
  }
  EXPECT_EQ(CounterValue("guard.trips.resource"), resource_before + 1);
  EXPECT_EQ(CounterValue("guard.trips.cancelled"), cancelled_before + 1);
  EXPECT_EQ(CounterValue("guard.contexts"), contexts_before + 2);
}

// ---------------------------------------------------------------------------
// Parser nesting-depth caps.

TEST(GuardParserTest, RegexDepthCapReturnsResourceExhausted) {
  Alphabet alphabet;
  std::string deep = std::string(250, '(') + "a" + std::string(250, ')');
  auto re = regex::Regex::Parse(&alphabet, deep);
  ASSERT_FALSE(re.ok());
  EXPECT_EQ(re.status().code(), StatusCode::kResourceExhausted);

  std::string fine = std::string(50, '(') + "a" + std::string(50, ')');
  EXPECT_TRUE(regex::Regex::Parse(&alphabet, fine).ok());
}

TEST(GuardParserTest, PatternDepthCapReturnsResourceExhausted) {
  Alphabet alphabet;
  std::string deep = "root";
  for (int i = 0; i < 300; ++i) deep += "{a";
  deep += ";";
  deep += std::string(300, '}');
  auto parsed = pattern::ParsePattern(&alphabet, deep);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);

  std::string fine = "root";
  for (int i = 0; i < 50; ++i) fine += "{a";
  fine += ";";
  fine += std::string(50, '}');
  auto ok = pattern::ParsePattern(&alphabet, fine);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(GuardParserTest, XmlDepthCapReturnsResourceExhausted) {
  Alphabet alphabet;
  std::string deep;
  for (int i = 0; i < 300; ++i) deep += "<a>";
  for (int i = 0; i < 300; ++i) deep += "</a>";
  auto doc = xml::ParseXml(&alphabet, deep);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);

  std::string fine;
  for (int i = 0; i < 50; ++i) fine += "<a>";
  for (int i = 0; i < 50; ++i) fine += "</a>";
  EXPECT_TRUE(xml::ParseXml(&alphabet, fine).ok());
}

// ---------------------------------------------------------------------------
// Per-item degradation of the batch APIs.

// One small and one large document with identical shape: items carrying a
// key and a value leaf. The step quota is sized so that the small document
// completes and the large one trips (MatchTables::Build polls at least
// once per document node).
xml::Document MakeItemDoc(Alphabet* alphabet, int items) {
  xml::Document doc(alphabet);
  for (int i = 0; i < items; ++i) {
    xml::NodeId item = doc.AddElement(doc.root(), "item");
    xml::NodeId k = doc.AddElement(item, "k");
    doc.AddText(k, "key" + std::to_string(i % 3));
    xml::NodeId v = doc.AddElement(item, "v");
    doc.AddText(v, "val");
  }
  return doc;
}

constexpr int kSmallItems = 4;
constexpr int kLargeItems = 10'000;
constexpr int64_t kBatchStepQuota = 3'000;

TEST(GuardBatchTest, EvaluateSelectedBatchDegradesPerDocument) {
  Alphabet alphabet;
  auto parsed = pattern::ParsePattern(&alphabet, "root { s = item; } select s;");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  xml::Document small = MakeItemDoc(&alphabet, kSmallItems);
  xml::Document large = MakeItemDoc(&alphabet, kLargeItems);
  std::vector<const xml::Document*> docs = {&small, &large};

  pattern::EvalBatchOptions options;
  options.budget.max_steps = kBatchStepQuota;
  std::vector<Status> statuses;
  auto results = pattern::EvaluateSelectedBatch(parsed->pattern, docs,
                                                options, &statuses);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(statuses.size(), 2u);

  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_EQ(results[0].size(), static_cast<size_t>(kSmallItems));

  EXPECT_EQ(statuses[1].code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(results[1].empty());  // partial tuples are never surfaced

  // The same batch without a budget completes both documents.
  auto unlimited = pattern::EvaluateSelectedBatch(parsed->pattern, docs, 1);
  EXPECT_EQ(unlimited[0], results[0]);
  EXPECT_EQ(unlimited[1].size(), static_cast<size_t>(kLargeItems));
}

pattern::ParsedPattern MustParse(Alphabet* alphabet, const std::string& dsl) {
  auto parsed = pattern::ParsePattern(alphabet, dsl);
  RTP_CHECK_MSG(parsed.ok(), parsed.status().ToString().c_str());
  return std::move(parsed).value();
}

fd::FunctionalDependency MakeKeyValueFd(Alphabet* alphabet) {
  auto fd = fd::FunctionalDependency::FromParsed(MustParse(alphabet, R"(
    root {
      c = item {
        k = k;
        v = v;
      }
    }
    select k, v;
    context root;
  )"));
  RTP_CHECK_MSG(fd.ok(), fd.status().ToString().c_str());
  return std::move(fd).value();
}

TEST(GuardBatchTest, CheckFdBatchDegradesPerDocument) {
  Alphabet alphabet;
  fd::FunctionalDependency fd = MakeKeyValueFd(&alphabet);
  xml::Document small = MakeItemDoc(&alphabet, kSmallItems);
  xml::Document large = MakeItemDoc(&alphabet, kLargeItems);
  std::vector<const xml::Document*> docs = {&small, &large};

  fd::BatchCheckOptions options;
  options.check.budget.max_steps = kBatchStepQuota;
  std::vector<fd::CheckResult> results = fd::CheckFdBatch(fd, docs, options);
  ASSERT_EQ(results.size(), 2u);

  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  fd::CheckResult small_ref = fd::CheckFd(fd, small);
  EXPECT_EQ(results[0].satisfied, small_ref.satisfied);
  EXPECT_EQ(results[0].num_mappings, small_ref.num_mappings);

  EXPECT_EQ(results[1].status.code(), StatusCode::kResourceExhausted);
}

TEST(GuardBatchTest, CancelledTokenDrainsBatchWithoutWork) {
  Alphabet alphabet;
  fd::FunctionalDependency fd = MakeKeyValueFd(&alphabet);
  std::vector<xml::Document> docs_storage;
  std::vector<const xml::Document*> docs;
  for (int i = 0; i < 6; ++i) {
    docs_storage.push_back(MakeItemDoc(&alphabet, kSmallItems));
  }
  for (const xml::Document& doc : docs_storage) docs.push_back(&doc);

  guard::CancelToken cancel;
  cancel.Cancel();  // cancelled before the batch even starts
  fd::BatchCheckOptions options;
  options.check.cancel = &cancel;
  options.jobs = 2;
  std::vector<fd::CheckResult> results = fd::CheckFdBatch(fd, docs, options);
  ASSERT_EQ(results.size(), docs.size());
  for (const fd::CheckResult& result : results) {
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  }
}

TEST(GuardBatchTest, CancelledTokenYieldsCancelledCriterion) {
  Alphabet alphabet;
  auto reduction =
      independence::BuildInclusionReduction(&alphabet, "a", "a|b");
  ASSERT_TRUE(reduction.ok());
  guard::CancelToken cancel;
  cancel.Cancel();
  independence::CriterionOptions options;
  options.cancel = &cancel;
  auto result = independence::CheckIndependence(
      reduction->fd, reduction->update_class, nullptr, &alphabet, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Per-cell degradation on the PSPACE hardness gadget.

TEST(GuardGadgetTest, MatrixDegradesPathologicalCellsPerCell) {
  Alphabet alphabet;
  // Cheap pair: tiny regexes on both sides.
  auto cheap = independence::BuildInclusionReduction(&alphabet, "a", "a|b");
  ASSERT_TRUE(cheap.ok()) << cheap.status().ToString();
  // Pathological pair: the update-class side carries (a|b)*a(a|b)^n, whose
  // DFA needs ~2^n states — the determinization blowup behind the PSPACE
  // hardness reduction. n=5 keeps the unbudgeted calibration run feasible
  // while consuming an order of magnitude more states than the cheap pair.
  std::string eta = "(a|b)*/a";
  for (int i = 0; i < 5; ++i) eta += "/(a|b)";
  auto patho =
      independence::BuildInclusionReduction(&alphabet, eta, "(a|b)*");
  ASSERT_TRUE(patho.ok()) << patho.status().ToString();

  // Calibrate the state budget from measured consumption: state counting
  // is deterministic (no wall clock), so a quota strictly between the
  // cheap pair's total and the pathological pair's total separates the
  // two cells exactly.
  auto measure_states = [&](const update::UpdateClass& cls) {
    guard::ExecutionBudget huge;
    huge.max_automaton_states = int64_t{1} << 40;
    guard::GuardContext ctx(huge);
    guard::ScopedGuard scope(&ctx);
    auto result = independence::CheckIndependence(cheap->fd, cls, nullptr,
                                                  &alphabet);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return ctx.states();
  };
  int64_t cheap_states = measure_states(cheap->update_class);
  int64_t patho_states = measure_states(patho->update_class);
  ASSERT_LT(cheap_states, patho_states);

  // Unbudgeted serial reference for the cheap cell.
  auto reference = independence::CheckIndependence(
      cheap->fd, cheap->update_class, nullptr, &alphabet);
  ASSERT_TRUE(reference.ok());

  uint64_t trips_before = CounterValue("guard.trips.resource");

  independence::MatrixOptions options;
  options.budget.max_automaton_states =
      cheap_states + (patho_states - cheap_states) / 2;
  auto matrix = independence::ComputeIndependenceMatrix(
      {&cheap->fd}, {&cheap->update_class, &patho->update_class}, nullptr,
      &alphabet, options);
  ASSERT_TRUE(matrix.ok()) << matrix.status().ToString();

  // The cheap cell completes and agrees with the serial reference.
  const independence::MatrixEntry& ok_cell = matrix->at(0, 0);
  EXPECT_TRUE(ok_cell.status.ok()) << ok_cell.status.ToString();
  EXPECT_EQ(ok_cell.independent, reference->independent);

  // The pathological cell degrades alone: resource status, conservative
  // not-independent verdict, and the whole matrix still succeeds.
  const independence::MatrixEntry& tripped_cell = matrix->at(0, 1);
  EXPECT_EQ(tripped_cell.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(tripped_cell.independent);

  // Every trip is counted in the guard metrics (unless compiled out).
#ifndef RTP_OBS_DISABLED
  EXPECT_GE(CounterValue("guard.trips.resource"), trips_before + 1);
#else
  (void)trips_before;
#endif

  // The rendering distinguishes tripped cells from negative verdicts.
  std::string rendered = matrix->ToString({"fd"}, {"cheap", "patho"});
  EXPECT_NE(rendered.find("resource"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault injection.

class GuardFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { guard::DisarmAllFailpoints(); }
  void TearDown() override { guard::DisarmAllFailpoints(); }
};

TEST_F(GuardFailpointTest, DeterminizeFailpointTripsTheInstalledGuard) {
  guard::ArmFailpoint("regex.determinize", guard::FailAction::kStates);
  guard::ExecutionBudget budget;
  budget.max_steps = int64_t{1} << 40;  // engaged but far from tripping
  guard::GuardContext ctx(budget);
  guard::ScopedGuard scope(&ctx);
  Alphabet alphabet;
  (void)regex::Regex::Parse(&alphabet, "a/b|c*");
  EXPECT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(ctx.status().message().find("regex.determinize"),
            std::string::npos);
  EXPECT_GE(guard::FailpointHits("regex.determinize"), 1);
}

TEST_F(GuardFailpointTest, FdCheckFailpointSurfacesInResultStatus) {
  Alphabet alphabet;
  fd::FunctionalDependency fd = MakeKeyValueFd(&alphabet);
  xml::Document doc = MakeItemDoc(&alphabet, kSmallItems);

  guard::ArmFailpoint("fd.check", guard::FailAction::kDeadline);
  fd::CheckOptions options;
  options.budget.max_steps = int64_t{1} << 40;
  fd::CheckResult result = fd::CheckFd(fd, doc, options);
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);

  // Disarmed after firing: the next check is clean.
  fd::CheckResult clean = fd::CheckFd(fd, doc, options);
  EXPECT_TRUE(clean.status.ok()) << clean.status.ToString();
}

TEST_F(GuardFailpointTest, AfterHitsDelaysFiring) {
  Alphabet alphabet;
  fd::FunctionalDependency fd = MakeKeyValueFd(&alphabet);
  xml::Document doc = MakeItemDoc(&alphabet, kSmallItems);

  guard::ArmFailpoint("fd.check", guard::FailAction::kCancel,
                      /*after_hits=*/1);
  fd::CheckOptions options;
  options.budget.max_steps = int64_t{1} << 40;
  fd::CheckResult first = fd::CheckFd(fd, doc, options);
  EXPECT_TRUE(first.status.ok()) << first.status.ToString();
  fd::CheckResult second = fd::CheckFd(fd, doc, options);
  EXPECT_EQ(second.status.code(), StatusCode::kCancelled);
}

TEST_F(GuardFailpointTest, FiringWithoutGuardIsHarmless) {
  guard::ArmFailpoint("regex.determinize", guard::FailAction::kStates);
  Alphabet alphabet;
  auto re = regex::Regex::Parse(&alphabet, "a|b");
  EXPECT_TRUE(re.ok()) << re.status().ToString();
  EXPECT_GE(guard::FailpointHits("regex.determinize"), 1);
}

}  // namespace
}  // namespace rtp
