// Unit tests for obs/: LogHistogram percentile math against a sorted
// reference, the metrics registry's collector merging, retention, removal
// protocol, and expositions, trace span aggregation + deterministic
// sampling, the slow-query log ring, and the trace recorder's line format
// round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "masksearch/common/random.h"
#include "masksearch/obs/histogram.h"
#include "masksearch/obs/metrics.h"
#include "masksearch/obs/recorder.h"
#include "masksearch/obs/slow_query_log.h"
#include "masksearch/obs/trace.h"
#include "tests/test_util.h"

namespace masksearch {
namespace obs {
namespace {

using testing_util::TempDir;

// --- LogHistogram ----------------------------------------------------------

TEST(LogHistogramTest, EmptyIsAllZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.Percentile(0.99), 0.0);
}

TEST(LogHistogramTest, SingleObservationIsExactEverywhere) {
  LogHistogram h;
  h.Record(0.125);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  // The [min, max] clamp makes every percentile of a singleton exact.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 0.125);
}

TEST(LogHistogramTest, PercentilesTrackSortedReference) {
  // The documented accuracy contract: any percentile is within the bucket
  // growth factor (2^(1/8), ~9.1% relative) of the exact order statistic.
  Rng rng(42);
  LogHistogram h;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform latencies across 1 us .. 10 s: every octave exercised.
    const double v = std::pow(10.0, -6.0 + 7.0 * rng.NextDouble());
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    const double exact =
        values[static_cast<size_t>(q * (values.size() - 1))];
    const double est = h.Percentile(q);
    EXPECT_GT(est, exact / 1.10) << "q=" << q;
    EXPECT_LT(est, exact * 1.10) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.min(), values.front());
  EXPECT_DOUBLE_EQ(h.max(), values.back());
}

TEST(LogHistogramTest, MergeIsExact) {
  Rng rng(7);
  LogHistogram a, b, whole;
  for (int i = 0; i < 5000; ++i) {
    const double v = 1e-4 + rng.NextDouble();
    whole.Record(v);
    (i % 2 == 0 ? a : b).Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  // Bucket counts merge exactly; the streamed sum differs only by
  // floating-point addition order.
  EXPECT_NEAR(a.sum(), whole.sum(), whole.sum() * 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Percentile(q), whole.Percentile(q)) << "q=" << q;
  }
}

TEST(LogHistogramTest, OutOfRangeValuesLandInEdgeBuckets) {
  LogHistogram h;
  h.Record(0.0);      // below range: lowest bucket
  h.Record(-3.0);     // negative: lowest bucket, but exact min keeps it
  h.Record(1e9);      // above range: top bucket, exact max keeps it
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // Estimates stay clamped to the observed range.
  EXPECT_GE(h.Percentile(0.99), -3.0);
  EXPECT_LE(h.Percentile(0.99), 1e9);
}

TEST(LogHistogramTest, BucketIndexRespectsBounds) {
  for (double v : {1e-9, 1e-3, 0.5, 1.0, 60.0, 1e4}) {
    const size_t i = LogHistogram::BucketIndex(v);
    ASSERT_LT(i, LogHistogram::kNumBuckets);
    EXPECT_GE(v, LogHistogram::BucketLower(i));
    EXPECT_LT(v, LogHistogram::BucketUpper(i));
  }
}

// --- metrics registry ------------------------------------------------------

/// Value of the sample named `name`, or -1 (with a test failure) if absent.
double SampleValue(const std::vector<MetricsRegistry::Sample>& samples,
                   const std::string& name) {
  for (const auto& s : samples) {
    if (s.name == name) return s.value;
  }
  ADD_FAILURE() << "no sample named " << name;
  return -1;
}

bool HasSample(const std::vector<MetricsRegistry::Sample>& samples,
               const std::string& name) {
  for (const auto& s : samples) {
    if (s.name == name) return true;
  }
  return false;
}

TEST(MetricsRegistryTest, SamplesFlattenCollectorEmissions) {
  MetricsRegistry reg;
  LogHistogram h;
  h.Record(0.25);
  reg.AddCollector([&](MetricSink& sink) {
    sink.Counter("ms_test_total", 3);
    sink.Gauge("ms_test_gauge", 1.5);
    sink.Histogram("ms_test_seconds", h);
  });

  const auto samples = reg.Samples();
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_test_total"), 3.0);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_test_gauge"), 1.5);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_test_seconds.count"), 1.0);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_test_seconds.p50"), 0.25);
  EXPECT_TRUE(std::is_sorted(
      samples.begin(), samples.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
}

TEST(MetricsRegistryTest, PrometheusTextGroupsLabeledSeries) {
  MetricsRegistry reg;
  reg.AddCollector([](MetricSink& sink) {
    sink.Counter("ms_req_total" + Label("class", "interactive"), 2);
    sink.Counter("ms_req_total" + Label("class", "batch"), 5);
  });
  const std::string text = reg.PrometheusText();
  // One TYPE line for the base name; both labeled series present.
  EXPECT_EQ(text.find("# TYPE ms_req_total counter"),
            text.rfind("# TYPE ms_req_total counter"));
  EXPECT_NE(text.find("ms_req_total{class=\"interactive\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ms_req_total{class=\"batch\"} 5"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonExpositionIsFlat) {
  MetricsRegistry reg;
  reg.AddCollector([](MetricSink& sink) {
    sink.Counter("ms_a_total", 7);
    sink.Gauge("ms_b", 0.5);
  });
  const std::string json = reg.Json();
  EXPECT_NE(json.find("\"ms_a_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"ms_b\": 0.5"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST(MetricsRegistryTest, SameNamedSamplesAddAndHistogramsMergeExactly) {
  MetricsRegistry reg;
  LogHistogram a, b, both;
  for (int i = 1; i <= 50; ++i) {
    a.Record(0.001 * i);
    both.Record(0.001 * i);
  }
  for (int i = 1; i <= 30; ++i) {
    b.Record(0.1 * i);
    both.Record(0.1 * i);
  }
  reg.AddCollector([&](MetricSink& sink) {
    sink.Counter("ms_x_total", 4);
    sink.Gauge("ms_x_resident", 1.0);
    sink.Histogram("ms_x_seconds", a);
  });
  reg.AddCollector([&](MetricSink& sink) {
    sink.Counter("ms_x_total", 6);
    sink.Gauge("ms_x_resident", 2.5);
    sink.Histogram("ms_x_seconds", b);
  });
  const auto samples = reg.Samples();
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_x_total"), 10.0);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_x_resident"), 3.5);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_x_seconds.count"), 80.0);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_x_seconds.p95"),
                   both.Percentile(0.95));
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_x_seconds.max"), both.max());
}

TEST(MetricsRegistryTest, RemovedCollectorKeepsCountersAndDropsGauges) {
  MetricsRegistry reg;
  int runs = 0;
  uint64_t count = 0;
  LogHistogram h;
  const size_t handle = reg.AddCollector([&](MetricSink& sink) {
    ++runs;
    sink.Counter("ms_gone_total", count);
    sink.Gauge("ms_gone_resident", 9.0);
    sink.Histogram("ms_gone_seconds", h);
  });
  count = 5;
  h.Record(0.5);
  (void)reg.Samples();
  (void)reg.PrometheusText();
  EXPECT_EQ(runs, 2);

  // The last values are read at removal, after any activity since the
  // previous scrape.
  count = 7;
  h.Record(1.5);
  reg.RemoveCollector(handle);
  EXPECT_EQ(runs, 3);
  const auto samples = reg.Samples();
  EXPECT_EQ(runs, 3);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_gone_total"), 7.0);
  EXPECT_DOUBLE_EQ(SampleValue(samples, "ms_gone_seconds.count"), 2.0);
  EXPECT_FALSE(HasSample(samples, "ms_gone_resident"));

  // A successor under the same name adds to the retained total.
  reg.AddCollector(
      [](MetricSink& sink) { sink.Counter("ms_gone_total", 1); });
  EXPECT_DOUBLE_EQ(SampleValue(reg.Samples(), "ms_gone_total"), 8.0);
  reg.RemoveCollector(handle);  // unknown handle: no-op
}

TEST(MetricsRegistryTest, RemoveCollectorWaitsForInFlightRun) {
  MetricsRegistry reg;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> runs{0};
  std::atomic<bool> finished{false};
  const size_t handle = reg.AddCollector([&](MetricSink& sink) {
    if (runs.fetch_add(1) == 0) {
      entered.set_value();
      released.wait();  // the scrape blocks inside the collector
    }
    sink.Counter("ms_blocked_total", 1);
    finished.store(true);
  });

  std::thread scraper([&] { (void)reg.Samples(); });
  entered.get_future().wait();
  std::atomic<bool> removed{false};
  bool finished_at_return = false;
  std::thread remover([&] {
    reg.RemoveCollector(handle);
    finished_at_return = finished.load();
    removed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(removed.load())
      << "RemoveCollector returned while its collector was still running";
  release.set_value();
  remover.join();
  scraper.join();
  EXPECT_TRUE(finished_at_return);
}

TEST(MetricsRegistryTest, CountersNeverDropWhileCollectorsComeAndGo) {
  MetricsRegistry reg;
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load()) {
      const size_t h = reg.AddCollector(
          [](MetricSink& sink) { sink.Counter("ms_churn_total", 1); });
      reg.RemoveCollector(h);
    }
  });
  double last = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto samples = reg.Samples();
    double now = 0;
    for (const auto& s : samples) {
      if (s.name == "ms_churn_total") now = s.value;
    }
    ASSERT_GE(now, last) << "a counter moved backwards at scrape " << i;
    last = now;
  }
  stop.store(true);
  churn.join();
}

TEST(MetricsRegistryTest, LabelEscapesPerTextFormat) {
  EXPECT_EQ(Label("dataset", "plain"), "{dataset=\"plain\"}");
  EXPECT_EQ(Label("dataset", "a\"b\\c\nd"), "{dataset=\"a\\\"b\\\\c\\nd\"}");
}

// --- tracing ---------------------------------------------------------------

TEST(TraceTest, SpansAggregateByName) {
  Trace t(17);
  t.AddSpan("io_wait", 0.5);
  t.AddSpan("io_wait", 0.25);
  t.AddSpan("exec", 1.0);
  t.AddCount("cache_hits", 3);
  t.AddCount("cache_hits", 4);
  EXPECT_DOUBLE_EQ(t.SpanSeconds("io_wait"), 0.75);
  EXPECT_DOUBLE_EQ(t.SpanSeconds("exec"), 1.0);
  EXPECT_DOUBLE_EQ(t.SpanSeconds("absent"), 0.0);
  const auto spans = t.spans();
  EXPECT_EQ(spans.size(), 2u);
  for (const auto& s : spans) {
    if (s.name == "io_wait") {
      EXPECT_EQ(s.count, 2u);
    }
  }
  const auto counts = t.counts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].second, 7u);
}

TEST(TraceTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(Trace::Current(), nullptr);
  Trace outer(1), inner(2);
  {
    TraceScope a(&outer);
    EXPECT_EQ(Trace::Current(), &outer);
    {
      TraceScope b(&inner);
      EXPECT_EQ(Trace::Current(), &inner);
    }
    EXPECT_EQ(Trace::Current(), &outer);
    {
      TraceScope c(nullptr);  // a pool task propagating "not tracing"
      EXPECT_EQ(Trace::Current(), nullptr);
    }
    EXPECT_EQ(Trace::Current(), &outer);
  }
  EXPECT_EQ(Trace::Current(), nullptr);
}

TEST(TraceTest, NextIdIsUniqueAndNonzero) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = Trace::NextId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second);
  }
}

TEST(TraceTest, SamplingIsDeterministicAndProportional) {
  int sampled = 0;
  for (uint64_t id = 1; id <= 10000; ++id) {
    const bool s = Trace::ShouldSample(id, 0.1);
    // Deterministic: the same id answers the same way every time.
    EXPECT_EQ(s, Trace::ShouldSample(id, 0.1));
    if (s) ++sampled;
    EXPECT_TRUE(Trace::ShouldSample(id, 1.0));
    EXPECT_FALSE(Trace::ShouldSample(id, 0.0));
  }
  // 10% +- 3 points over 10k distinct ids.
  EXPECT_GT(sampled, 700);
  EXPECT_LT(sampled, 1300);
}

// --- slow-query log --------------------------------------------------------

SlowQueryEntry MakeEntry(uint64_t id, double total) {
  SlowQueryEntry e;
  e.trace_id = id;
  e.priority_class = "normal";
  e.status = "ok";
  e.total_seconds = total;
  return e;
}

TEST(SlowQueryLogTest, ThresholdFilters) {
  SlowQueryLog::Options opts;
  opts.threshold_seconds = 0.1;
  SlowQueryLog log(opts);
  log.Offer(MakeEntry(1, 0.05));
  log.Offer(MakeEntry(2, 0.15));
  EXPECT_EQ(log.recorded(), 1u);
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].trace_id, 2u);
}

TEST(SlowQueryLogTest, ZeroThresholdKeepsAllAndRingEvicts) {
  SlowQueryLog::Options opts;
  opts.threshold_seconds = 0;
  opts.capacity = 4;
  SlowQueryLog log(opts);
  for (uint64_t i = 1; i <= 10; ++i) log.Offer(MakeEntry(i, 0.001));
  EXPECT_EQ(log.recorded(), 10u);  // monotonic, survives eviction
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front().trace_id, 7u);  // oldest kept
  EXPECT_EQ(entries.back().trace_id, 10u);
}

TEST(SlowQueryLogTest, RenderCarriesSpansAndCounts) {
  SlowQueryLog::Options opts;
  opts.threshold_seconds = 0;
  SlowQueryLog log(opts);
  SlowQueryEntry e = MakeEntry(777, 0.2);
  Trace::Span span;
  span.name = "io_wait";
  span.count = 3;
  span.total_seconds = 0.12;
  e.spans.push_back(span);
  e.counts.emplace_back("cache_hits", 9);
  log.Offer(std::move(e));
  const std::string text = log.Render();
  EXPECT_NE(text.find("trace=777"), std::string::npos);
  EXPECT_NE(text.find("io_wait"), std::string::npos);
  EXPECT_NE(text.find("count cache_hits"), std::string::npos);
}

// --- trace recorder format -------------------------------------------------

TEST(RecorderTest, LineRoundTripsExactly) {
  RecordedRequest r;
  r.at_ms = 123.456;
  r.dataset = "serving";
  r.tenant = 42;
  r.priority_class = "interactive";
  r.deadline_ms = 250;
  r.trace_id = 99;
  r.params = {0.8, 1.0, 37};
  r.sql = "SELECT mask_id FROM MasksDatabaseView "
          "WHERE CP(mask, object, (?, ?)) > ?;";
  const std::string line = EncodeRecordedRequest(r);
  auto parsed = ParseRecordedRequest(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->at_ms, r.at_ms);
  EXPECT_EQ(parsed->dataset, r.dataset);
  EXPECT_EQ(parsed->tenant, r.tenant);
  EXPECT_EQ(parsed->priority_class, r.priority_class);
  EXPECT_DOUBLE_EQ(parsed->deadline_ms, r.deadline_ms);
  EXPECT_EQ(parsed->trace_id, r.trace_id);
  EXPECT_EQ(parsed->params, r.params);
  EXPECT_EQ(parsed->sql, r.sql);
}

TEST(RecorderTest, SqlMayContainSpacesAndEquals) {
  RecordedRequest r;
  r.dataset = "d";
  r.sql = "SELECT x FROM t WHERE a = 1 AND b = 2;";
  auto parsed = ParseRecordedRequest(EncodeRecordedRequest(r));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->sql, r.sql);
}

TEST(RecorderTest, MalformedLineIsTypedCorruption) {
  EXPECT_TRUE(ParseRecordedRequest("not a trace line").status().IsCorruption());
  EXPECT_TRUE(
      ParseRecordedRequest("at_ms=1 dataset=d tenant=0 class=normal")
          .status()
          .IsCorruption());  // no sql=
  // A pre-trace script line: the SQL is not behind sql=.
  EXPECT_TRUE(ParseRecordedRequest("class=batch SELECT a FROM t WHERE b = 1;")
                  .status()
                  .IsCorruption());
  // Every value is checked whole; the error names the offending key. The
  // rest of each line is well-formed.
  const std::string rest = " dataset=d sql=SELECT 1;";
  for (const std::string field :
       {"at_ms=1x", "at_ms=", "tenant=abc", "tenant=-3", "tenant=2.5",
        "deadline_ms=oops", "deadline_ms=nan", "trace=7q", "trace=-1",
        "params=0.5,x", "params=0.5,", "params=", "class=urgent",
        "bogus=1"}) {
    const Status st = ParseRecordedRequest(field + rest).status();
    EXPECT_TRUE(st.IsCorruption()) << field << ": " << st.ToString();
    const std::string key = field.substr(0, field.find('='));
    EXPECT_NE(st.message().find(key), std::string::npos)
        << field << ": " << st.ToString();
  }
}

TEST(RecorderTest, ScriptLineLeavesKeysUnset) {
  auto parsed = ParseRecordedRequest(
      "class=interactive deadline_ms=50 sql=SELECT mask_id FROM "
      "MasksDatabaseView WHERE CP(mask, object, (0.6, 1.0)) > 50;");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tenant, -1);
  EXPECT_TRUE(parsed->dataset.empty());
  EXPECT_EQ(parsed->at_ms, 0);
  EXPECT_EQ(parsed->priority_class, "interactive");
  EXPECT_DOUBLE_EQ(parsed->deadline_ms, 50);
  EXPECT_EQ(parsed->trace_id, 0u);
  EXPECT_TRUE(parsed->params.empty());
}

TEST(RecorderTest, UnsetTenantRoundTrips) {
  RecordedRequest r;
  r.sql = "SELECT 1;";
  ASSERT_EQ(r.tenant, -1);
  const std::string line = EncodeRecordedRequest(r);
  EXPECT_EQ(line.find("tenant="), std::string::npos) << line;
  EXPECT_EQ(line.find("dataset="), std::string::npos) << line;
  auto parsed = ParseRecordedRequest(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tenant, -1);
  EXPECT_TRUE(parsed->dataset.empty());

  r.tenant = 0;  // a recorded tenant 0 stays distinct from unset
  parsed = ParseRecordedRequest(EncodeRecordedRequest(r));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->tenant, 0);
}

TEST(RecorderTest, RecordThenLoadTrace) {
  TempDir dir("obs_recorder");
  const std::string path = dir.file("session.trace");
  {
    auto rec = TraceRecorder::Open(path);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    (*rec)->Record("serving", 3, "batch", 0.25, 11, {0.5, 800},
                   "SELECT mask_id FROM MasksDatabaseView "
                   "WHERE CP(mask, object, (?, 1.0)) > ?;");
    (*rec)->Record("serving", 0, "normal", 0, 0, {},
                   "SELECT mask_id FROM MasksDatabaseView "
                   "WHERE CP(mask, object, (0.5, 1.0)) > 10;");
    EXPECT_EQ((*rec)->recorded(), 2u);
  }  // destructor flushes
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].dataset, "serving");
  EXPECT_EQ((*loaded)[0].tenant, 3);
  EXPECT_EQ((*loaded)[0].priority_class, "batch");
  EXPECT_DOUBLE_EQ((*loaded)[0].deadline_ms, 250);
  EXPECT_EQ((*loaded)[0].trace_id, 11u);
  EXPECT_EQ((*loaded)[0].params.size(), 2u);
  EXPECT_EQ((*loaded)[1].params.size(), 0u);
  // Arrival offsets are monotone non-decreasing within one session.
  EXPECT_LE((*loaded)[0].at_ms, (*loaded)[1].at_ms);
}

}  // namespace
}  // namespace obs
}  // namespace masksearch
