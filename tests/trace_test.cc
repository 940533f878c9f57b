// Tests for the observability layer (DESIGN.md §3f): the exponential
// latency histogram, the Gauge snapshot-vs-reset contract, the trace
// collector/span machinery, the HTTP header propagation glue, and an
// end-to-end check that a pushdown query yields the documented span tree
// stocator -> proxy -> object server -> storlet stages.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "objectstore/http.h"
#include "scoop/scoop.h"
#include "workload/generator.h"

namespace scoop {
namespace {

// The collector is process-global; every test starts from a clean,
// disabled buffer so ordering between tests cannot matter.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceCollector::Global().Disable();
    TraceCollector::Global().Clear();
  }
  void TearDown() override {
    TraceCollector::Global().Disable();
    TraceCollector::Global().Clear();
  }
};

// --- hex id codec ----------------------------------------------------------

TEST(HexIdTest, RoundTrip) {
  for (uint64_t id : {uint64_t{1}, uint64_t{0xdeadbeef},
                      uint64_t{0xffffffffffffffffULL}}) {
    std::string hex = HexId(id);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(ParseHexId(hex), id);
  }
}

TEST(HexIdTest, MalformedParsesToZero) {
  EXPECT_EQ(ParseHexId(""), 0u);
  EXPECT_EQ(ParseHexId("xyz"), 0u);
  EXPECT_EQ(ParseHexId("0123456789abcdef0"), 0u);  // 17 chars
  EXPECT_EQ(ParseHexId("12 4"), 0u);
}

// --- ExponentialHistogram --------------------------------------------------

TEST(ExponentialHistogramTest, EmptySnapshotIsAllZero) {
  ExponentialHistogram h;
  ExponentialHistogram::Snapshot s = h.Take();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(ExponentialHistogramTest, SingleValueCollapsesPercentiles) {
  ExponentialHistogram h;
  h.Record(100);
  ExponentialHistogram::Snapshot s = h.Take();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.sum, 100);
  EXPECT_EQ(s.min, 100);
  EXPECT_EQ(s.max, 100);
  // Percentiles are clamped into [min, max], so a single value is exact.
  EXPECT_EQ(s.p50, 100.0);
  EXPECT_EQ(s.p95, 100.0);
  EXPECT_EQ(s.p99, 100.0);
}

TEST(ExponentialHistogramTest, PercentilesWithinBucketResolution) {
  ExponentialHistogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  ExponentialHistogram::Snapshot s = h.Take();
  EXPECT_EQ(s.count, 1000);
  EXPECT_EQ(s.sum, 1000 * 1001 / 2);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 1000);
  // Buckets are powers of two, so the estimate is exact to within ~2x.
  EXPECT_GE(s.p50, 250.0);
  EXPECT_LE(s.p50, 1000.0);
  EXPECT_GE(s.p95, 475.0);
  EXPECT_LE(s.p95, 1000.0);
  EXPECT_GE(s.p99, s.p95);
  EXPECT_LE(s.p99, 1000.0);
}

TEST(ExponentialHistogramTest, SkewedDistributionSeparatesTails) {
  ExponentialHistogram h;
  for (int i = 0; i < 90; ++i) h.Record(1);
  for (int i = 0; i < 10; ++i) h.Record(100000);
  ExponentialHistogram::Snapshot s = h.Take();
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 100000);
  EXPECT_LE(s.p50, 2.0);          // the bulk
  EXPECT_GE(s.p99, 32768.0);      // the tail's bucket
  EXPECT_LE(s.p99, 100000.0);     // clamped to observed max
}

TEST(ExponentialHistogramTest, NonPositiveValuesLandInBucketZero) {
  ExponentialHistogram h;
  h.Record(0);
  h.Record(-50);
  h.Record(4);
  ExponentialHistogram::Snapshot s = h.Take();
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.min, -50);
  EXPECT_EQ(s.max, 4);
  EXPECT_GE(s.p50, -50.0);
  EXPECT_LE(s.p99, 4.0);
}

TEST(ExponentialHistogramTest, ResetForgetsEverything) {
  ExponentialHistogram h;
  h.Record(7);
  h.Reset();
  ExponentialHistogram::Snapshot s = h.Take();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  h.Record(3);  // min sentinel must re-arm after Reset
  EXPECT_EQ(h.Take().min, 3);
}

TEST(ExponentialHistogramTest, ConcurrentRecordsLoseNothing) {
  ExponentialHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(1 + (t * 31 + i) % 4096);
    });
  }
  for (std::thread& t : threads) t.join();
  ExponentialHistogram::Snapshot s = h.Take();
  EXPECT_EQ(s.count, int64_t{kThreads} * kPerThread);
  EXPECT_GE(s.min, 1);
  EXPECT_LE(s.max, 4096);
}

// --- Gauge reset contract --------------------------------------------------

TEST(GaugeTest, ResetRestoresPeakInvariantUnderRacingAdds) {
  // Hammer the gauge with adds while the main thread resets in a loop;
  // after everything joins, the documented invariant peak() >= value()
  // must hold. Before the repair loop in Reset() this check flaked.
  Gauge gauge;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        gauge.Add(3);
        gauge.Add(-1);
      }
    });
  }
  for (int i = 0; i < 2000; ++i) gauge.Reset();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  EXPECT_GE(gauge.peak(), gauge.value());
  gauge.Reset();  // quiesced: now the reset epoch is exact
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.peak(), 0);
}

// --- TraceCollector / TraceSpan --------------------------------------------

TEST_F(TraceTest, DisabledSpanIsInertAndRecordsNothing) {
  {
    TraceSpan span("test.op");
    EXPECT_FALSE(span.active());
    EXPECT_FALSE(span.context().valid());
    span.SetTag("k", "v");  // must be a harmless no-op
  }
  EXPECT_TRUE(TraceCollector::Global().Snapshot().empty());
}

TEST_F(TraceTest, SpanTreeLinksParents) {
  TraceCollector::Global().Enable();
  {
    TraceSpan root("test.root");
    ASSERT_TRUE(root.active());
    TraceSpan child("test.child", root.context());
    TraceSpan grandchild("test.grandchild", child.context());
    grandchild.SetTag("key", "first");
    grandchild.SetTag("key", "second");  // overwrites, no duplicate
  }
  std::vector<Span> spans = TraceCollector::Global().Snapshot();
  ASSERT_EQ(spans.size(), 3u);  // recorded in End() order: inner first
  const Span& grandchild = spans[0];
  const Span& child = spans[1];
  const Span& root = spans[2];
  EXPECT_EQ(root.name, "test.root");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(child.parent_id, root.span_id);
  EXPECT_EQ(grandchild.parent_id, child.span_id);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_EQ(grandchild.trace_id, root.trace_id);
  ASSERT_EQ(grandchild.tags.size(), 1u);
  EXPECT_EQ(grandchild.tags[0].second, "second");
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST_F(TraceTest, EndIsIdempotentAndClearEmpties) {
  TraceCollector::Global().Enable();
  TraceSpan span("test.op");
  span.End();
  span.End();
  EXPECT_EQ(TraceCollector::Global().Snapshot().size(), 1u);
  TraceCollector::Global().Clear();
  EXPECT_TRUE(TraceCollector::Global().Snapshot().empty());
  EXPECT_EQ(TraceCollector::Global().dropped(), 0);
}

TEST_F(TraceTest, BufferCapCountsDrops) {
  TraceCollector::Global().Enable();
  Span span;
  span.trace_id = 1;
  span.span_id = 1;
  span.name = "flood";
  for (size_t i = 0; i < TraceCollector::kMaxSpans + 7; ++i) {
    TraceCollector::Global().Record(span);
  }
  EXPECT_EQ(TraceCollector::Global().Snapshot().size(),
            TraceCollector::kMaxSpans);
  EXPECT_EQ(TraceCollector::Global().dropped(), 7);
  TraceCollector::Global().Clear();
  EXPECT_EQ(TraceCollector::Global().dropped(), 0);
}

TEST_F(TraceTest, DumpJsonCarriesSpansAndTags) {
  TraceCollector::Global().Enable();
  {
    TraceSpan span("test.json");
    span.SetTag("quote", "a\"b");
  }
  std::string json = TraceCollector::Global().DumpJson();
  EXPECT_NE(json.find("\"name\":\"test.json\""), std::string::npos);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

// --- header propagation glue -----------------------------------------------

TEST_F(TraceTest, HeadersRoundTripWhenEnabled) {
  TraceCollector::Global().Enable();
  TraceSpan span("test.glue");
  Headers headers;
  StampTraceContext(span.context(), &headers);
  EXPECT_TRUE(headers.Has(kTraceIdHeader));
  EXPECT_TRUE(headers.Has(kParentSpanHeader));
  TraceContext parsed = TraceContextFromHeaders(headers);
  EXPECT_EQ(parsed.trace_id, span.context().trace_id);
  EXPECT_EQ(parsed.span_id, span.context().span_id);
}

TEST_F(TraceTest, InvalidContextStripsHeaders) {
  TraceCollector::Global().Enable();
  Headers headers;
  headers.Set(kTraceIdHeader, "0000000000000001");
  headers.Set(kParentSpanHeader, "0000000000000002");
  StampTraceContext(TraceContext{}, &headers);
  EXPECT_FALSE(headers.Has(kTraceIdHeader));
  EXPECT_FALSE(headers.Has(kParentSpanHeader));
}

TEST_F(TraceTest, HeadersIgnoredWhenCollectorDisabled) {
  Headers headers;
  headers.Set(kTraceIdHeader, "0000000000000001");
  headers.Set(kParentSpanHeader, "0000000000000002");
  EXPECT_FALSE(TraceContextFromHeaders(headers).valid());
}

// --- MetricRegistry histogram plumbing -------------------------------------

TEST(MetricRegistryTest, HistogramsSnapshotAndSerialise) {
  MetricRegistry registry;
  registry.GetHistogram("a")->Record(10);
  registry.GetHistogram("a")->Record(20);
  registry.GetHistogram("b")->Record(5);
  auto samples = registry.SnapshotHistograms();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "a");
  EXPECT_EQ(samples[0].stats.count, 2);
  EXPECT_EQ(samples[1].name, "b");
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  registry.ResetAll();
  EXPECT_EQ(registry.GetHistogram("a")->count(), 0);
}

// --- end to end: pushdown query produces the documented span tree ----------

class TraceEndToEndTest : public TraceTest {
 protected:
  void SetUp() override {
    TraceTest::SetUp();
    auto cluster = ScoopCluster::Create(SwiftConfig());
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->Connect("gridpocket", "secret", "gp");
    ASSERT_TRUE(client.ok());

    GeneratorConfig gen;
    gen.num_meters = 10;
    gen.readings_per_meter = 600;
    gen.seed = 2015;
    generator_ = std::make_unique<GridPocketGenerator>(gen);
    session_ = std::make_unique<ScoopSession>(cluster_.get(),
                                              std::move(client).value(),
                                              /*num_workers=*/2);
    ASSERT_TRUE(
        generator_->Upload(&session_->client(), "meters", "m", 2).ok());
    session_->RegisterCsvTable("largeMeter", "meters", "m",
                               GridPocketGenerator::MeterSchema(), true);
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<ScoopSession> session_;
  std::unique_ptr<GridPocketGenerator> generator_;
};

TEST_F(TraceEndToEndTest, PushdownQueryYieldsFullSpanTree) {
  cluster_->traces().Enable();
  auto outcome = session_->Sql(
      "SELECT vid, sum(index) as total FROM largeMeter "
      "WHERE date LIKE '2015-01%' GROUP BY vid ORDER BY vid");
  cluster_->traces().Disable();
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  std::vector<Span> spans = cluster_->traces().Snapshot();
  ASSERT_FALSE(spans.empty());
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.span_id] = &s;

  // Every recorded span must be well-formed.
  for (const Span& s : spans) {
    EXPECT_NE(s.trace_id, 0u) << s.name;
    EXPECT_GE(s.end_ns, s.start_ns) << s.name;
    if (s.parent_id != 0) {
      auto it = by_id.find(s.parent_id);
      ASSERT_NE(it, by_id.end()) << s.name << " has unknown parent";
      EXPECT_EQ(it->second->trace_id, s.trace_id)
          << s.name << " crossed traces";
    }
  }

  // Walk up from a storlet stage span; the chain must read
  // storlet.stage -> middleware.get -> objectserver.request ->
  // proxy.attempt -> proxy.request -> stocator.read_partition(root).
  const Span* stage = nullptr;
  for (const Span& s : spans) {
    if (s.name == "storlet.stage") stage = &s;
  }
  ASSERT_NE(stage, nullptr) << "no storlet.stage span collected";
  const char* kExpectedChain[] = {"middleware.get", "objectserver.request",
                                  "proxy.attempt", "proxy.request",
                                  "stocator.read_partition"};
  const Span* cursor = stage;
  for (const char* expected : kExpectedChain) {
    auto it = by_id.find(cursor->parent_id);
    ASSERT_NE(it, by_id.end()) << "chain broke below " << expected;
    cursor = it->second;
    EXPECT_EQ(cursor->name, expected);
    EXPECT_GT(cursor->duration_ns(), 0) << cursor->name;
  }
  EXPECT_EQ(cursor->parent_id, 0u) << "stocator span should root the trace";

  // Spot-check tags at two levels of the tree.
  auto has_tag = [](const Span& s, const std::string& key) {
    return std::any_of(s.tags.begin(), s.tags.end(),
                       [&](const auto& kv) { return kv.first == key; });
  };
  EXPECT_TRUE(has_tag(*stage, "stage"));
  EXPECT_TRUE(has_tag(*stage, "storlet"));
  for (const Span& s : spans) {
    if (s.name == "proxy.attempt") EXPECT_TRUE(has_tag(s, "device"));
    if (s.name == "stocator.read_partition") {
      EXPECT_TRUE(has_tag(s, "object"));
      EXPECT_TRUE(has_tag(s, "pushdown"));
    }
  }

  // The latency histograms the spans feed must have data too.
  MetricRegistry& metrics = cluster_->metrics();
  EXPECT_GT(metrics.GetHistogram("proxy.get_us")->count(), 0);
  EXPECT_GT(metrics.GetHistogram("objectserver.get_us")->count(), 0);
  EXPECT_GT(metrics.GetHistogram("storlet.stage_us")->count(), 0);
  ExponentialHistogram::Snapshot read =
      metrics.GetHistogram("stocator.read_us")->Take();
  EXPECT_GT(read.count, 0);
  EXPECT_GT(read.p99, 0.0);
  EXPECT_GT(metrics.GetHistogram("pushdown.bytes_saved")->count(), 0);
}

TEST_F(TraceEndToEndTest, EtlUploadStagesJoinThePutTrace) {
  // An upload's storlets run in the same pipeline as a GET's: each stage
  // is a storlet.stage span under the PUT's proxy.request, and feeds the
  // stage histogram.
  cluster_->traces().Enable();
  // One object, uploaded through the ETL storlet.
  Status uploaded =
      generator_->Upload(&session_->client(), "meters", "etl", 1, true);
  cluster_->traces().Disable();
  ASSERT_TRUE(uploaded.ok()) << uploaded;

  std::vector<Span> spans = cluster_->traces().Snapshot();
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.span_id] = &s;
  const Span* stage = nullptr;
  for (const Span& s : spans) {
    if (s.name == "storlet.stage") stage = &s;
  }
  ASSERT_NE(stage, nullptr) << "the upload's stage opened no span";
  auto parent = by_id.find(stage->parent_id);
  ASSERT_NE(parent, by_id.end());
  EXPECT_EQ(parent->second->name, "proxy.request");
  EXPECT_GT(cluster_->metrics().GetHistogram("storlet.stage_us")->count(), 0);
}

TEST_F(TraceEndToEndTest, DisabledCollectorLeavesNoSpans) {
  auto outcome = session_->Sql("SELECT vid FROM largeMeter");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(cluster_->traces().Snapshot().empty());
}

}  // namespace
}  // namespace scoop
