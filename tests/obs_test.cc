// Tests for the rtp::obs metrics / tracing subsystem.
//
// The registry is process-global and shared with every other test in this
// binary (the pipeline registers its own metrics as a side effect), so all
// metrics created here use an "obstest." prefix and assertions never assume
// the registry contains *only* what this file created.

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/domain.h"
#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"

namespace rtp::obs {
namespace {

TEST(CounterTest, AddAndValue) {
  Counter* c = Registry().FindOrCreateCounter("obstest.counter.basic");
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
}

TEST(CounterTest, FindOrCreateIsIdempotent) {
  Counter* a = Registry().FindOrCreateCounter("obstest.counter.same");
  Counter* b = Registry().FindOrCreateCounter("obstest.counter.same");
  EXPECT_EQ(a, b);
}

TEST(CounterTest, FindDoesNotCreate) {
  EXPECT_EQ(Registry().FindCounter("obstest.counter.never-created"), nullptr);
  Registry().FindOrCreateCounter("obstest.counter.created");
  EXPECT_NE(Registry().FindCounter("obstest.counter.created"), nullptr);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter* c = Registry().FindOrCreateCounter("obstest.counter.concurrent");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAddValue) {
  Gauge* g = Registry().FindOrCreateGauge("obstest.gauge.basic");
  g->Set(10);
  EXPECT_EQ(g->value(), 10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);
  g->Set(-5);
  EXPECT_EQ(g->value(), -5);
}

TEST(HistogramTest, CountSumMinMaxMean) {
  Histogram* h = Registry().FindOrCreateHistogram("obstest.hist.basic");
  h->Reset();
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->min(), 0u);  // empty histogram reports 0
  h->Record(10);
  h->Record(20);
  h->Record(30);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_EQ(h->sum(), 60u);
  EXPECT_EQ(h->min(), 10u);
  EXPECT_EQ(h->max(), 30u);
  EXPECT_DOUBLE_EQ(h->mean(), 20.0);
}

TEST(HistogramTest, BucketPlacement) {
  Histogram* h = Registry().FindOrCreateHistogram("obstest.hist.buckets");
  h->Reset();
  h->Record(0);  // bucket 0 counts zeros
  h->Record(1);  // [1,2) -> bucket 1
  h->Record(2);  // [2,4) -> bucket 2
  h->Record(3);
  h->Record(1024);  // [1024,2048) -> bucket 11
  EXPECT_EQ(h->bucket(0), 1u);
  EXPECT_EQ(h->bucket(1), 1u);
  EXPECT_EQ(h->bucket(2), 2u);
  EXPECT_EQ(h->bucket(11), 1u);
}

TEST(HistogramTest, QuantilesAreOrderedAndBounded) {
  Histogram* h = Registry().FindOrCreateHistogram("obstest.hist.quantiles");
  h->Reset();
  for (uint64_t v = 1; v <= 1000; ++v) h->Record(v);
  uint64_t p50 = h->ApproxQuantile(0.5);
  uint64_t p99 = h->ApproxQuantile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GT(p50, 0u);
  // Log2 buckets are coarse; just require the right order of magnitude.
  EXPECT_LE(p99, 2048u);
  EXPECT_GE(p99, 256u);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  Histogram* h = Registry().FindOrCreateHistogram("obstest.hist.interp");
  h->Reset();
  for (uint64_t v = 1; v <= 1000; ++v) h->Record(v);
  // Exact quantiles of uniform 1..1000 are 500.5 (p50) and 990 (p99);
  // linear interpolation inside the containing log2 bucket must land
  // close, where a bucket bound alone would be off by hundreds.
  EXPECT_GE(h->Quantile(0.5), 450.0);
  EXPECT_LE(h->Quantile(0.5), 550.0);
  EXPECT_GE(h->Quantile(0.99), 950.0);
  EXPECT_LE(h->Quantile(0.99), 1000.0);
  // The extremes clamp to the observed [min, max] range.
  EXPECT_DOUBLE_EQ(h->Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h->Quantile(1.0), 1000.0);
  EXPECT_EQ(h->ApproxQuantile(1.0), 1000u);
}

TEST(HistogramTest, QuantileOfSingleSampleIsTheSample) {
  Histogram* h = Registry().FindOrCreateHistogram("obstest.hist.single");
  h->Reset();
  h->Record(42);
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h->Quantile(q), 42.0) << q;
  }
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  Histogram* h = Registry().FindOrCreateHistogram("obstest.hist.emptyq");
  h->Reset();
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);
}

TEST(HistogramDeltaTest, RecordMergeAndQuantileMatchHistogram) {
  HistogramDelta a;
  HistogramDelta b;
  for (uint64_t v = 1; v <= 500; ++v) a.Record(v);
  for (uint64_t v = 501; v <= 1000; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.count, 1000u);
  EXPECT_EQ(a.sum, 500500u);
  EXPECT_EQ(a.ReportedMin(), 1u);
  EXPECT_EQ(a.max, 1000u);
  EXPECT_DOUBLE_EQ(a.Mean(), 500.5);

  // The merged delta quantiles agree with a Histogram that saw the same
  // samples (both run the shared interpolation).
  Histogram* h = Registry().FindOrCreateHistogram("obstest.hist.delta-ref");
  h->Reset();
  for (uint64_t v = 1; v <= 1000; ++v) h->Record(v);
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), h->Quantile(0.5));
  EXPECT_DOUBLE_EQ(a.Quantile(0.99), h->Quantile(0.99));
}

TEST(HistogramDeltaTest, EmptyDeltaReportsZeros) {
  HistogramDelta d;
  EXPECT_EQ(d.ReportedMin(), 0u);
  EXPECT_DOUBLE_EQ(d.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 0.0);
}

TEST(HistogramTest, ConcurrentRecordsAreLossless) {
  Histogram* h = Registry().FindOrCreateHistogram("obstest.hist.concurrent");
  h->Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Record(static_cast<uint64_t>(t) * kPerThread + i + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->min(), 1u);
  EXPECT_EQ(h->max(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// One RTP_PHASE records its histogram, a span in the active session and
// a span in the installed domain, all with the phase's own duration.
TEST(PhaseTest, RecordsHistogramSessionSpanAndDomainSpan) {
  Histogram* h = Registry().FindOrCreateHistogram("obstest.phase.all.ns");
  h->Reset();
  TraceSession session;
  session.Start();
  uint64_t measured_ns = 0;
  {
    MetricDomain domain;
    {
      RTP_PHASE("obstest.phase.all");
      auto start = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      measured_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
    ASSERT_EQ(domain.spans().size(), 1u);
    EXPECT_EQ(domain.spans()[0].name, "obstest.phase.all");
    EXPECT_GE(domain.spans()[0].dur_ns, measured_ns);
  }  // the domain flushes its histogram delta into the registry
  session.Stop();

  EXPECT_EQ(h->count(), 1u);
  EXPECT_GE(h->sum(), measured_ns);
  std::vector<TraceSession::Span> spans = session.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "obstest.phase.all");
  EXPECT_GE(spans[0].dur_us, measured_ns / 1000);
}

TEST(PhaseTest, NestedPhasesKeepParentAndDepth) {
  Histogram* inner = Registry().FindOrCreateHistogram("obstest.phase.inner.ns");
  inner->Reset();
  TraceSession session;
  session.Start();
  {
    MetricDomain domain;
    {
      RTP_PHASE("obstest.phase.outer");
      { RTP_PHASE("obstest.phase.inner"); }
      { RTP_PHASE("obstest.phase.inner"); }
    }
    const std::vector<CapturedSpan>& captured = domain.spans();
    ASSERT_EQ(captured.size(), 3u);
    // Preorder: the outer phase opened first; both inner ones are its
    // children.
    EXPECT_EQ(captured[0].name, "obstest.phase.outer");
    EXPECT_EQ(captured[0].parent, -1);
    EXPECT_EQ(captured[0].depth, 0);
    for (int i : {1, 2}) {
      EXPECT_EQ(captured[i].name, "obstest.phase.inner");
      EXPECT_EQ(captured[i].parent, 0);
      EXPECT_EQ(captured[i].depth, 1);
    }
  }
  session.Stop();

  // The session records at close, so the inner phases land first.
  std::vector<TraceSession::Span> spans = session.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "obstest.phase.inner");
  EXPECT_EQ(spans[0].depth, 1);
  EXPECT_STREQ(spans[1].name, "obstest.phase.inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_STREQ(spans[2].name, "obstest.phase.outer");
  EXPECT_EQ(spans[2].depth, 0);
  EXPECT_EQ(inner->count(), 2u);
}

TEST(PhaseTest, WithNeitherInstalledOnlyTheHistogramRecords) {
  Histogram* h = Registry().FindOrCreateHistogram("obstest.phase.bare.ns");
  h->Reset();
  ASSERT_EQ(TraceSession::Active(), nullptr);
  ASSERT_EQ(MetricDomain::Current(), nullptr);
  TraceSession session;  // never started
  { RTP_PHASE("obstest.phase.bare"); }
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(session.NumSpans(), 0u);
}

TEST(DumpTest, JsonHasStableShapeAndSortedKeys) {
  Registry().FindOrCreateCounter("obstest.zz.counter")->Reset();
  Registry().FindOrCreateCounter("obstest.aa.counter")->Reset();
  Registry().FindOrCreateCounter("obstest.aa.counter")->Add(7);
  Histogram* h = Registry().FindOrCreateHistogram("obstest.zz.hist");
  h->Reset();
  h->Record(5);

  std::string json = DumpJson();
  // Top-level sections, in order.
  size_t counters_pos = json.find("\"counters\":{");
  size_t gauges_pos = json.find("\"gauges\":{");
  size_t histograms_pos = json.find("\"histograms\":{");
  ASSERT_NE(counters_pos, std::string::npos);
  ASSERT_NE(gauges_pos, std::string::npos);
  ASSERT_NE(histograms_pos, std::string::npos);
  EXPECT_LT(counters_pos, gauges_pos);
  EXPECT_LT(gauges_pos, histograms_pos);

  // Counter values are emitted as bare integers, sorted by name.
  size_t aa = json.find("\"obstest.aa.counter\":7");
  size_t zz = json.find("\"obstest.zz.counter\":0");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, zz);

  // Histogram entries carry the full summary shape.
  size_t hist = json.find("\"obstest.zz.hist\":{");
  ASSERT_NE(hist, std::string::npos);
  for (const char* key :
       {"\"count\":", "\"sum\":", "\"min\":", "\"max\":", "\"mean\":",
        "\"p50\":", "\"p99\":"}) {
    EXPECT_NE(json.find(key, hist), std::string::npos) << key;
  }

  // Dumping twice with no metric activity in between is byte-identical.
  EXPECT_EQ(json, DumpJson());

  // Text dump mentions the same metrics.
  std::string text = DumpText();
  EXPECT_NE(text.find("obstest.aa.counter"), std::string::npos);
  EXPECT_NE(text.find("obstest.zz.hist"), std::string::npos);
}

TEST(DumpTest, JsonCarriesSchemaVersion) {
  std::string json = DumpJson();
  EXPECT_EQ(json.rfind("{\"schema_version\":2,", 0), 0u) << json;
  EXPECT_EQ(kDumpSchemaVersion, 2);
}

// ---------------------------------------------------------------------------
// Exposition: snapshots, deltas, Prometheus text format.

TEST(ExpositionTest, SnapshotDeltaSubtractsCountersAndHistograms) {
  Counter* c = Registry().FindOrCreateCounter("obstest.expo.counter");
  Histogram* h = Registry().FindOrCreateHistogram("obstest.expo.hist");
  Gauge* g = Registry().FindOrCreateGauge("obstest.expo.gauge");
  c->Reset();
  h->Reset();
  g->Set(1);
  c->Add(10);
  h->Record(7);

  MetricsSnapshot before = TakeSnapshot();
  c->Add(5);
  h->Record(9);
  h->Record(100);
  g->Set(33);
  MetricsSnapshot delta = SnapshotDelta(before, TakeSnapshot());

  bool found_counter = false;
  for (const auto& [name, value] : delta.counters) {
    if (name != "obstest.expo.counter") continue;
    found_counter = true;
    EXPECT_EQ(value, 5u);
  }
  EXPECT_TRUE(found_counter);

  bool found_hist = false;
  for (const auto& [name, d] : delta.histograms) {
    if (name != "obstest.expo.hist") continue;
    found_hist = true;
    EXPECT_EQ(d.count, 2u);
    EXPECT_EQ(d.sum, 109u);
    EXPECT_EQ(d.max, 100u);  // min/max are instantaneous, from `after`
  }
  EXPECT_TRUE(found_hist);

  bool found_gauge = false;
  for (const auto& [name, value] : delta.gauges) {
    if (name != "obstest.expo.gauge") continue;
    found_gauge = true;
    EXPECT_EQ(value, 33);  // gauges are instantaneous, from `after`
  }
  EXPECT_TRUE(found_gauge);
}

TEST(ExpositionTest, SnapshotJsonMatchesDumpShape) {
  Registry().FindOrCreateCounter("obstest.expo.json")->Reset();
  std::string json = SnapshotToJson(TakeSnapshot());
  EXPECT_EQ(json.rfind("{\"schema_version\":2,", 0), 0u) << json;
  EXPECT_NE(json.find("\"obstest.expo.json\":0"), std::string::npos) << json;
}

TEST(ExpositionTest, PrometheusExpositionShape) {
  Counter* c = Registry().FindOrCreateCounter("obstest.promo-counter");
  c->Reset();
  c->Add(3);
  Histogram* h = Registry().FindOrCreateHistogram("obstest.promo.hist");
  h->Reset();
  h->Record(0);
  h->Record(3);

  std::string text = DumpPrometheus();
  // Names get the rtp_ prefix and '-'/'.' sanitize to '_'.
  EXPECT_NE(text.find("# TYPE rtp_obstest_promo_counter counter\n"
                      "rtp_obstest_promo_counter 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE rtp_obstest_promo_hist histogram\n"),
            std::string::npos)
      << text;
  // Cumulative le buckets at the integer-exact log2 upper bounds: the
  // zero lands at le="0", the 3 in (1,3]; +Inf closes the series.
  EXPECT_NE(text.find("rtp_obstest_promo_hist_bucket{le=\"0\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rtp_obstest_promo_hist_bucket{le=\"3\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rtp_obstest_promo_hist_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rtp_obstest_promo_hist_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("rtp_obstest_promo_hist_count 2\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured logging.

TEST(LogLevelTest, ParseLogLevelReadsEveryNameAndRejectsOthers) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("loud"), std::nullopt);
}

class LogCaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetLogSink([this](const std::string& line) {
      std::lock_guard<std::mutex> lock(mu_);
      lines_.push_back(line);
    });
  }
  void TearDown() override {
    SetLogLevel(LogLevel::kOff);
    SetLogSink(nullptr);
  }
  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
};

TEST_F(LogCaptureTest, EmitsStructuredJsonLine) {
  SetLogLevel(LogLevel::kInfo);
  RTP_LOG(INFO) << "hello " << 42;
  std::vector<std::string> captured = lines();
  ASSERT_EQ(captured.size(), 1u);
  const std::string& line = captured[0];
  EXPECT_EQ(line.back(), '\n');
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"file\":\"obs_test.cc\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"line\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"msg\":\"hello 42\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos) << line;
}

TEST_F(LogCaptureTest, LevelsBelowMinimumAreSilentAndUnevaluated) {
  SetLogLevel(LogLevel::kWarn);
  bool evaluated = false;
  auto touch = [&evaluated] {
    evaluated = true;
    return "side effect";
  };
  RTP_LOG(INFO) << touch();
  EXPECT_FALSE(evaluated);  // operands of a disabled line never run
  EXPECT_TRUE(lines().empty());
  RTP_LOG(ERROR) << touch();
  EXPECT_TRUE(evaluated);
  EXPECT_EQ(lines().size(), 1u);
}

TEST_F(LogCaptureTest, PerSiteRateLimitSuppresses) {
  SetLogLevel(LogLevel::kInfo);
  constexpr int kAttempts = 200;
  for (int i = 0; i < kAttempts; ++i) {
    RTP_LOG(INFO) << "spam " << i;
  }
  size_t emitted = lines().size();
  // One window's worth per second per site; the loop takes far less than
  // a second but may straddle one boundary.
  EXPECT_GE(emitted, static_cast<size_t>(kMaxLogsPerSitePerSecond));
  EXPECT_LE(emitted, 2u * kMaxLogsPerSitePerSecond);
  EXPECT_LT(emitted, static_cast<size_t>(kAttempts));
}

TEST(TraceTest, InactiveByDefaultAndSpansAreFree) {
  ASSERT_EQ(TraceSession::Active(), nullptr);
  // Constructing a span with no active session is a no-op.
  { RTP_PHASE("obstest.noop"); }
  EXPECT_EQ(TraceSession::Active(), nullptr);
}

// Nested spans keep their depth, and in the export every inner span lies
// inside its outer one wherever the microsecond boundaries fall: the
// export rounds each span's start and end down. Short spans cross a
// boundary now and then, so many pairs exercise the rounding.
TEST(TraceTest, RecordsNestedSpansWithDepth) {
  constexpr int kPairs = 2000;
  TraceSession session;
  session.Start();
  ASSERT_EQ(TraceSession::Active(), &session);
  for (int pair = 0; pair < kPairs; ++pair) {
    RTP_PHASE("obstest.outer");
    {
      RTP_PHASE("obstest.inner");
      volatile uint64_t sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
  }
  session.Stop();
  EXPECT_EQ(TraceSession::Active(), nullptr);

  // Spans are recorded at destruction, so each inner span lands just
  // before its outer one.
  std::vector<TraceSession::Span> spans = session.spans();
  ASSERT_EQ(spans.size(), 2u * kPairs);
  int escaped = 0;
  for (size_t i = 0; i < spans.size(); i += 2) {
    const TraceSession::Span& inner = spans[i];
    const TraceSession::Span& outer = spans[i + 1];
    ASSERT_STREQ(inner.name, "obstest.inner");
    ASSERT_STREQ(outer.name, "obstest.outer");
    ASSERT_EQ(inner.depth, 1);
    ASSERT_EQ(outer.depth, 0);
    if (inner.start_us < outer.start_us ||
        inner.start_us + inner.dur_us > outer.start_us + outer.dur_us) {
      ++escaped;
    }
  }
  EXPECT_EQ(escaped, 0) << "of " << kPairs << " nested pairs";
}

TEST(TraceTest, SpansStartedAfterStopAreDropped) {
  TraceSession session;
  session.Start();
  session.Stop();
  { RTP_PHASE("obstest.after-stop"); }
  EXPECT_EQ(session.NumSpans(), 0u);
}

TEST(TraceTest, ChromeTracingExportShape) {
  TraceSession session;
  session.Start();
  {
    Phase phase("obstest.export \"quoted\"\ttab",
                Registry().FindOrCreateHistogram("obstest.export.ns"));
    volatile uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  session.Stop();

  std::string json = session.ExportChromeTracing();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.rfind(']'), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"depth\":0}"), std::string::npos);
  // Quotes and control characters in span names are escaped, so the
  // export is valid JSON and the name round-trips.
  EXPECT_NE(json.find("obstest.export \\\"quoted\\\"\\ttab"),
            std::string::npos);
  auto parsed = serve::JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->array_items().size(), 1u);
  EXPECT_EQ(parsed->array_items()[0].FindString("name"),
            "obstest.export \"quoted\"\ttab");
}

}  // namespace
}  // namespace rtp::obs
