// Tests for the proxy-tier pushdown result cache (src/cache/): the
// sharded LRU itself, the canonical query fingerprint, singleflight
// coalescing, and the end-to-end contract — cached, coalesced and
// cache-faulted responses must be byte-identical to the uncached path,
// a thundering herd of identical queries must cost one storlet
// invocation, and no write (direct PUT or PUT racing a replica sweep)
// may leave a servable stale entry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_middleware.h"
#include "cache/result_cache.h"
#include "cache/singleflight.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "csv/agg_storlet.h"
#include "sql/agg_wire.h"
#include "scoop/scoop.h"
#include "storlets/headers.h"
#include "workload/generator.h"
#include "workload/queries.h"

namespace scoop {
namespace {

// ---------------------------------------------------------------------------
// ResultCache unit tests (no cluster).

CachedResult MakeResult(const std::string& body, int status = 200) {
  CachedResult result;
  result.status = status;
  result.headers.Set("Content-Type", "text/csv");
  result.body = std::make_shared<const std::string>(body);
  return result;
}

ResultCacheConfig SmallConfig(size_t budget, int shards = 1) {
  ResultCacheConfig config;
  config.enabled = true;
  config.byte_budget = budget;
  config.shards = shards;
  config.max_entry_bytes = budget;  // admit anything that fits a shard
  return config;
}

TEST(ResultCacheTest, DisabledCacheNeverStoresOrServes) {
  MetricRegistry metrics;
  ResultCacheConfig config = SmallConfig(1 << 20);
  config.enabled = false;
  ResultCache cache(config, &metrics);
  std::string key = ResultCache::MakeKey("/a/c/o", "etag1", "fp");
  EXPECT_FALSE(cache.Insert(key, "/a/c/o", MakeResult("body")));
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.TotalBytes(), 0);
}

TEST(ResultCacheTest, HitReturnsExactResultAndCounts) {
  MetricRegistry metrics;
  ResultCache cache(SmallConfig(1 << 20), &metrics);
  std::string key = ResultCache::MakeKey("/a/c/o", "etag1", "fp");
  ASSERT_TRUE(cache.Insert(key, "/a/c/o", MakeResult("filtered rows")));
  auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->body, "filtered rows");
  EXPECT_EQ(hit->status, 200);
  EXPECT_EQ(hit->headers.GetOr("Content-Type", ""), "text/csv");
  EXPECT_EQ(metrics.GetCounter("cache.hits")->value(), 1);
  // A different ETag for the same object+query is a different key: a
  // rewritten object can never serve its predecessor's bytes.
  EXPECT_FALSE(
      cache.Lookup(ResultCache::MakeKey("/a/c/o", "etag2", "fp")).has_value());
  EXPECT_EQ(metrics.GetCounter("cache.misses")->value(), 1);
}

TEST(ResultCacheTest, LruEvictionRespectsByteBudget) {
  MetricRegistry metrics;
  // Budget fits roughly two of the ~1KiB entries (keys count too).
  ResultCache cache(SmallConfig(2600), &metrics);
  const std::string body(1024, 'x');
  auto key = [](int i) {
    return ResultCache::MakeKey("/a/c/o" + std::to_string(i), "e", "fp");
  };
  auto path = [](int i) { return "/a/c/o" + std::to_string(i); };
  ASSERT_TRUE(cache.Insert(key(0), path(0), MakeResult(body)));
  ASSERT_TRUE(cache.Insert(key(1), path(1), MakeResult(body)));
  // Touch 0 so 1 is the LRU victim.
  ASSERT_TRUE(cache.Lookup(key(0)).has_value());
  ASSERT_TRUE(cache.Insert(key(2), path(2), MakeResult(body)));
  EXPECT_TRUE(cache.Lookup(key(0)).has_value());
  EXPECT_FALSE(cache.Lookup(key(1)).has_value());
  EXPECT_TRUE(cache.Lookup(key(2)).has_value());
  EXPECT_GE(metrics.GetCounter("cache.evictions")->value(), 1);
  EXPECT_LE(cache.TotalBytes(), 2600);
}

TEST(ResultCacheTest, OversizedEntryIsRejected) {
  MetricRegistry metrics;
  ResultCacheConfig config = SmallConfig(1 << 20);
  config.max_entry_bytes = 128;
  ResultCache cache(config, &metrics);
  std::string key = ResultCache::MakeKey("/a/c/o", "e", "fp");
  EXPECT_FALSE(cache.Insert(key, "/a/c/o", MakeResult(std::string(4096, 'x'))));
  EXPECT_EQ(cache.TotalBytes(), 0);
  EXPECT_TRUE(cache.Insert(key, "/a/c/o", MakeResult("small")));
}

TEST(ResultCacheTest, InvalidateObjectDropsEveryQueryVariant) {
  MetricRegistry metrics;
  ResultCache cache(SmallConfig(1 << 20, 4), &metrics);
  // Three distinct queries cached for one object, one for another.
  for (const char* fp : {"fp1", "fp2", "fp3"}) {
    ASSERT_TRUE(cache.Insert(ResultCache::MakeKey("/a/c/o", "e", fp), "/a/c/o",
                             MakeResult(fp)));
  }
  ASSERT_TRUE(cache.Insert(ResultCache::MakeKey("/a/c/other", "e", "fp1"),
                           "/a/c/other", MakeResult("keep")));
  EXPECT_EQ(cache.InvalidateObject("/a/c/o"), 3);
  EXPECT_EQ(metrics.GetCounter("cache.invalidations")->value(), 3);
  for (const char* fp : {"fp1", "fp2", "fp3"}) {
    EXPECT_FALSE(
        cache.Lookup(ResultCache::MakeKey("/a/c/o", "e", fp)).has_value());
  }
  EXPECT_TRUE(
      cache.Lookup(ResultCache::MakeKey("/a/c/other", "e", "fp1")).has_value());
}

TEST(ResultCacheTest, InvalidationWorksWhileDisabled) {
  // A PUT landing while an operator has the cache switched off must
  // still drop the stale entry, or re-enabling would serve it.
  MetricRegistry metrics;
  ResultCache cache(SmallConfig(1 << 20), &metrics);
  std::string key = ResultCache::MakeKey("/a/c/o", "e", "fp");
  ASSERT_TRUE(cache.Insert(key, "/a/c/o", MakeResult("stale")));
  cache.set_enabled(false);
  EXPECT_EQ(cache.InvalidateObject("/a/c/o"), 1);
  cache.set_enabled(true);
  EXPECT_FALSE(cache.Lookup(key).has_value());
}

// ---------------------------------------------------------------------------
// Canonical query fingerprint.

TEST(FingerprintTest, IgnoresHeadersThatDontShapeTheResult) {
  Headers a;
  a.Set(kRunStorletHeader, "csvstorlet");
  a.Set("X-Storlet-Parameter-Sql", "SELECT * FROM t");
  a.Set("X-Auth-Token", "token-one");
  a.Set("Accept", "text/csv");
  Headers b;
  b.Set("X-Storlet-Parameter-Sql", "SELECT * FROM t");
  b.Set(kRunStorletHeader, "csvstorlet");
  b.Set("X-Auth-Token", "a-different-token");
  EXPECT_EQ(CanonicalQueryFingerprint(a), CanonicalQueryFingerprint(b));
}

TEST(FingerprintTest, ResponseShapeLeadsTheFingerprint) {
  // A partial-aggregate response (SAG1 frame) and a row response must
  // never share an entry, even if the rest of the header serialization
  // ever collided: the shape token is the leading key component.
  Headers rows;
  rows.Set(kRunStorletHeader, "aggstorlet");
  rows.Set("X-Storlet-Parameter-Sql", "SELECT city FROM t");
  Headers partials = rows;
  partials.Set("X-Storlet-Parameter-Output", "partials");
  EXPECT_TRUE(StartsWith(CanonicalQueryFingerprint(rows), "v2|shape=rows"));
  EXPECT_TRUE(
      StartsWith(CanonicalQueryFingerprint(partials), "v2|shape=agg"));
  EXPECT_NE(CanonicalQueryFingerprint(rows),
            CanonicalQueryFingerprint(partials));
  // The shape token tracks the value, not mere header presence, and is
  // case-insensitive like the rest of the header plane.
  Headers shouting = rows;
  shouting.Set("X-Storlet-Parameter-Output", "PARTIALS");
  EXPECT_TRUE(
      StartsWith(CanonicalQueryFingerprint(shouting), "v2|shape=agg"));
  Headers other_output = rows;
  other_output.Set("X-Storlet-Parameter-Output", "rows");
  EXPECT_TRUE(
      StartsWith(CanonicalQueryFingerprint(other_output), "v2|shape=rows"));
}

TEST(FingerprintTest, ResultShapingHeadersChangeTheFingerprint) {
  Headers base;
  base.Set(kRunStorletHeader, "csvstorlet");
  base.Set("X-Storlet-Parameter-Sql", "SELECT a FROM t");
  std::string fp = CanonicalQueryFingerprint(base);

  Headers other_sql = base;
  other_sql.Set("X-Storlet-Parameter-Sql", "SELECT b FROM t");
  EXPECT_NE(CanonicalQueryFingerprint(other_sql), fp);

  Headers with_range = base;
  with_range.Set("Range", "bytes=0-1023");
  EXPECT_NE(CanonicalQueryFingerprint(with_range), fp);
}

// ---------------------------------------------------------------------------
// Singleflight unit tests.

TEST(SingleflightTest, SecondCallerWaitsForReleaseAndGetsNoLead) {
  Singleflight flights;
  std::unique_ptr<Singleflight::Lead> lead = flights.Join("k");
  ASSERT_NE(lead, nullptr);
  std::atomic<bool> joining{false};
  std::atomic<bool> released{false};
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    joining.store(true);
    std::unique_ptr<Singleflight::Lead> second = flights.Join("k");
    // Join returns only once the leader let go, and a caller that found
    // the key led never leads it.
    EXPECT_TRUE(released.load());
    EXPECT_EQ(second, nullptr);
    returned.store(true);
  });
  while (!joining.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(returned.load());
  released.store(true);
  lead.reset();
  waiter.join();
  EXPECT_TRUE(returned.load());
}

TEST(SingleflightTest, ReleasedKeyCanBeLedAgain) {
  Singleflight flights;
  std::unique_ptr<Singleflight::Lead> first = flights.Join("k");
  ASSERT_NE(first, nullptr);
  // Keys are independent: another key leads while "k" is held.
  EXPECT_NE(flights.Join("other"), nullptr);
  first.reset();
  EXPECT_NE(flights.Join("k"), nullptr);
}

TEST(SingleflightTest, WaitCapReturnsNoLead) {
  constexpr auto kCap = std::chrono::milliseconds(20);
  Singleflight flights(kCap);
  std::unique_ptr<Singleflight::Lead> wedged = flights.Join("k");
  ASSERT_NE(wedged, nullptr);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(flights.Join("k"), nullptr);
  EXPECT_GE(std::chrono::steady_clock::now() - start, kCap);
  // Giving up did not take the key from the wedged leader.
  EXPECT_EQ(flights.Join("k"), nullptr);
  wedged.reset();
  EXPECT_NE(flights.Join("k"), nullptr);
}

// The TSan target: many threads race Join / fill / release on a handful
// of keys. A leader invalidates its object first and then fills or (every
// fourth round) fills nothing; a waiter is served from the fill or runs
// the request itself. Every request is counted exactly once: executed, or
// served as coalesced. Runs under the chaos label, so CI repeats it with
// -fsanitize=thread.
TEST(SingleflightTest, ConcurrentJoinStressCountsEveryRequestOnce) {
  MetricRegistry metrics;
  ResultCache cache(SmallConfig(1 << 20), &metrics);
  Singleflight flights;
  constexpr int kThreads = 16;
  constexpr int kRounds = 25;
  const std::string payload(8192, 'p');
  std::atomic<int> executions{0};

  auto worker = [&](int tid) {
    for (int round = 0; round < kRounds; ++round) {
      const std::string object = "/a/c/o" + std::to_string((tid + round) % 3);
      const std::string key = ResultCache::MakeKey(object, "etag", "fp");
      std::unique_ptr<Singleflight::Lead> lead = flights.Join(key);
      if (lead == nullptr) {
        std::optional<CachedResult> filled = cache.LookupCoalesced(key);
        if (filled) {
          ASSERT_EQ(*filled->body, payload);
          continue;
        }
      }
      executions.fetch_add(1);
      if (lead == nullptr) continue;  // ran the request itself, uncached
      cache.InvalidateObject(object);
      std::this_thread::yield();  // let waiters pile up on the key
      if (round % 4 != 0) {
        ASSERT_TRUE(cache.Insert(key, object, MakeResult(payload)));
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) threads.emplace_back(worker, tid);
  for (auto& t : threads) t.join();
  EXPECT_EQ(executions.load() + metrics.GetCounter("cache.coalesced")->value(),
            kThreads * kRounds);
  // A waiter's read is a coalesced read, never also a hit.
  EXPECT_EQ(metrics.GetCounter("cache.hits")->value(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end: the cache middleware in a live cluster.

class CacheEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Failpoints::Global().DisarmAll();
    SwiftConfig config;
    config.num_proxies = 2;
    config.num_storage_nodes = 4;
    config.disks_per_node = 2;
    config.part_power = 6;
    ResultCacheConfig cache_config;
    cache_config.enabled = true;
    auto cluster = ScoopCluster::Create(config, cache_config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->Connect("tenant", "key", "acct");
    ASSERT_TRUE(client.ok());
    session_ = std::make_unique<ScoopSession>(cluster_.get(),
                                              std::move(client).value(), 3);
    GeneratorConfig gen{.num_meters = 12, .readings_per_meter = 400,
                        .seed = 77};
    generator_ = std::make_unique<GridPocketGenerator>(gen);
    ASSERT_TRUE(
        generator_->Upload(&session_->client(), "meters", "m", 6).ok());
    schema_ = GridPocketGenerator::MeterSchema();
  }

  void TearDown() override { Failpoints::Global().DisarmAll(); }

  Request PushdownRequest(const std::string& object = "m0000.csv") {
    Request request = Request::Get("/acct/meters/" + object);
    request.headers.Set(kRunStorletHeader, "csvstorlet");
    request.headers.Set("X-Storlet-Parameter-Schema", schema_.ToSpec());
    return request;
  }

  // Issues the pushdown GET and materializes the body.
  HttpResponse PushdownGet(const std::string& object = "m0000.csv") {
    HttpResponse response = session_->client().Send(PushdownRequest(object));
    response.Materialize();
    return response;
  }

  // A GROUP BY pushdown: the GroupAggStorlet folds the object into one
  // SAG1 partial-aggregate frame (DESIGN.md §3i).
  Request AggRequest(const std::string& object = "m0000.csv") {
    Request request = Request::Get("/acct/meters/" + object);
    request.headers.Set(kRunStorletHeader, GroupAggStorlet::kName);
    request.headers.Set("X-Storlet-Parameter-Output", "partials");
    request.headers.Set("X-Storlet-Parameter-Group", "city");
    request.headers.Set("X-Storlet-Parameter-Aggs", "sum:index");
    request.headers.Set("X-Storlet-Parameter-Schema", schema_.ToSpec());
    return request;
  }

  HttpResponse AggGet(const std::string& object = "m0000.csv") {
    HttpResponse response = session_->client().Send(AggRequest(object));
    response.Materialize();
    return response;
  }

  int64_t Metric(const std::string& name) {
    return cluster_->metrics().GetCounter(name)->value();
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<ScoopSession> session_;
  std::unique_ptr<GridPocketGenerator> generator_;
  Schema schema_;
};

TEST_F(CacheEndToEndTest, RepeatedQueryIsServedFromCacheByteIdentically) {
  HttpResponse cold = PushdownGet();
  ASSERT_TRUE(cold.ok()) << cold.status;
  ASSERT_TRUE(cold.headers.Has(kStorletExecutedHeader));
  EXPECT_FALSE(cold.headers.Has(kCacheStatusHeader));
  EXPECT_EQ(Metric("cache.fills"), 1);

  int64_t invocations = Metric("storlet.invocations");
  HttpResponse hot = PushdownGet();
  ASSERT_TRUE(hot.ok());
  EXPECT_EQ(hot.headers.GetOr(kCacheStatusHeader, ""), "hit");
  EXPECT_EQ(hot.body(), cold.body());
  EXPECT_EQ(hot.headers.GetOr(kStorletExecutedHeader, ""),
            cold.headers.GetOr(kStorletExecutedHeader, ""));
  // The hit never touched the storage tier.
  EXPECT_EQ(Metric("storlet.invocations"), invocations);
  EXPECT_EQ(Metric("cache.hits"), 1);
}

TEST_F(CacheEndToEndTest, DifferentQueriesDontShareEntries) {
  HttpResponse full = PushdownGet();
  ASSERT_TRUE(full.ok());
  Request filtered_req = PushdownRequest();
  filtered_req.headers.Set("X-Storlet-Parameter-Projection", "vid,city");
  HttpResponse filtered = session_->client().Send(std::move(filtered_req));
  filtered.Materialize();
  ASSERT_TRUE(filtered.ok());
  // The second query missed (different fingerprint) and cached its own.
  EXPECT_FALSE(filtered.headers.Has(kCacheStatusHeader));
  EXPECT_NE(filtered.body(), full.body());
  EXPECT_EQ(Metric("cache.fills"), 2);
}

TEST_F(CacheEndToEndTest, CachedAggPartialsNeverServeARowShapeQuery) {
  // Prime the cache with a partial-aggregate result. A row-shape query
  // against the same object must then miss and execute its own storlet:
  // a SAG1 frame handed to the CSV row decoder would yield rows parsed
  // from binary data.
  HttpResponse agg = AggGet();
  ASSERT_TRUE(agg.ok()) << agg.status;
  ASSERT_TRUE(agg.headers.Has(kStorletExecutedHeader));
  ASSERT_TRUE(StartsWith(agg.body(), kAggWireMagic));
  EXPECT_EQ(Metric("cache.fills"), 1);

  HttpResponse rows = PushdownGet();
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(rows.headers.Has(kCacheStatusHeader))
      << "row-shape query served from the partial-agg cache entry";
  EXPECT_FALSE(StartsWith(rows.body(), kAggWireMagic));
  EXPECT_NE(rows.body(), agg.body());
  EXPECT_EQ(Metric("cache.fills"), 2);

  // Both shapes stay independently servable, byte-identically.
  HttpResponse agg_hot = AggGet();
  ASSERT_TRUE(agg_hot.ok());
  EXPECT_EQ(agg_hot.headers.GetOr(kCacheStatusHeader, ""), "hit");
  EXPECT_EQ(agg_hot.body(), agg.body());
  HttpResponse rows_hot = PushdownGet();
  ASSERT_TRUE(rows_hot.ok());
  EXPECT_EQ(rows_hot.headers.GetOr(kCacheStatusHeader, ""), "hit");
  EXPECT_EQ(rows_hot.body(), rows.body());
}

TEST_F(CacheEndToEndTest, IdenticalGroupByHerdCostsOneStorletRun) {
  // The agg-pushdown flavor of the coalescing acceptance check: a herd of
  // identical GROUP BY queries in flight at once runs the GroupAggStorlet
  // exactly once, and every client receives the same SAG1 frame.
  constexpr int kClients = 8;
  const int64_t invocations_before = Metric("storlet.invocations");

  std::vector<std::string> bodies(kClients);
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &bodies, &statuses] {
      HttpResponse response = AggGet();
      statuses[i] = response.status;
      bodies[i] = response.body();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(Metric("storlet.invocations") - invocations_before, 1)
      << "a GROUP BY herd must collapse to one partial-agg execution";
  HttpResponse reference = AggGet();
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference.headers.GetOr(kCacheStatusHeader, ""), "hit");
  ASSERT_TRUE(StartsWith(reference.body(), kAggWireMagic));
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(statuses[i], 200) << "client " << i;
    EXPECT_EQ(bodies[i], reference.body()) << "client " << i;
  }
  EXPECT_EQ(Metric("cache.coalesced") + Metric("cache.hits"), kClients);
}

TEST_F(CacheEndToEndTest, PutInvalidatesAndNextReadSeesNewBytes) {
  HttpResponse before = PushdownGet();
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(Metric("cache.fills"), 1);

  // Overwrite with a small distinct CSV (same schema header row).
  std::string header = before.body().substr(0, before.body().find('\n') + 1);
  auto existing = session_->client().GetObject("meters", "m0000.csv");
  ASSERT_TRUE(existing.ok());
  std::string replacement =
      existing->substr(0, existing->find('\n', existing->find('\n') + 1) + 1);
  ASSERT_NE(replacement, *existing);
  ASSERT_TRUE(
      session_->client().PutObject("meters", "m0000.csv", replacement).ok());
  EXPECT_GE(Metric("cache.invalidations"), 1);

  HttpResponse after = PushdownGet();
  ASSERT_TRUE(after.ok());
  // Not a hit, and the bytes reflect the overwrite.
  EXPECT_FALSE(after.headers.Has(kCacheStatusHeader));
  EXPECT_NE(after.body(), before.body());
}

TEST_F(CacheEndToEndTest, PutDuringReplicaSweepLeavesNoStaleEntry) {
  // Regression: a PUT landing while the replicator sweeps must not leave
  // a servable stale entry — the sweep copies bytes around the cluster
  // but only the proxy-path PUT changes the ETag the cache keys on.
  HttpResponse before = PushdownGet();
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(Metric("cache.fills"), 1);

  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    while (!stop.load()) cluster_->swift().RunReplication();
  });
  auto existing = session_->client().GetObject("meters", "m0000.csv");
  ASSERT_TRUE(existing.ok());
  std::string replacement =
      existing->substr(0, existing->find('\n', existing->find('\n') + 1) + 1);
  Status put =
      session_->client().PutObject("meters", "m0000.csv", replacement);
  stop.store(true);
  sweeper.join();
  ASSERT_TRUE(put.ok()) << put;

  HttpResponse after = PushdownGet();
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.headers.Has(kCacheStatusHeader))
      << "stale cache entry served after PUT raced the replica sweep";
  EXPECT_NE(after.body(), before.body());
}

TEST_F(CacheEndToEndTest, ConcurrentIdenticalQueriesCostOneInvocation) {
  // The coalescing acceptance check: N identical pushdown GETs in flight
  // at once execute the storlet exactly once; everyone gets the bytes.
  constexpr int kClients = 8;
  const int64_t invocations_before = Metric("storlet.invocations");

  std::vector<std::string> bodies(kClients);
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &bodies, &statuses] {
      HttpResponse response = PushdownGet();
      statuses[i] = response.status;
      bodies[i] = response.body();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(Metric("storlet.invocations") - invocations_before, 1)
      << "coalescing must collapse the herd to one storlet run";
  HttpResponse reference = PushdownGet();
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference.headers.GetOr(kCacheStatusHeader, ""), "hit");
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(statuses[i], 200) << "client " << i;
    EXPECT_EQ(bodies[i], reference.body()) << "client " << i;
  }
  // Everyone who didn't lead either coalesced or hit the cache.
  EXPECT_EQ(Metric("cache.coalesced") + Metric("cache.hits"), kClients);
}

TEST_F(CacheEndToEndTest, LeaderFailingMidStreamSendsWaitersToRunTheRequest) {
  // Small storlet chunks, so the leader's body is many writes long.
  cluster_->engine().set_chunk_size(1024);
  cluster_->result_cache().set_enabled(false);
  HttpResponse baseline = PushdownGet();
  ASSERT_TRUE(baseline.ok());
  cluster_->result_cache().set_enabled(true);
  const int64_t invocations_before = Metric("storlet.invocations");

  // The leader's storlet dies after two written chunks: its 200 head is
  // out, and its body fails mid-stream. Until that body is read, the key
  // stays led.
  FailpointSpec spec;
  spec.skip = 2;
  spec.max_fires = 1;
  ASSERT_TRUE(Failpoints::Global().Arm("engine.stage_crash", spec).ok());
  HttpResponse leader = session_->client().Send(PushdownRequest());
  ASSERT_EQ(leader.status, 200);
  ASSERT_TRUE(leader.streamed());

  constexpr int kFollowers = 4;
  std::vector<HttpResponse> followers(kFollowers);
  std::vector<std::thread> threads;
  threads.reserve(kFollowers);
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back(
        [this, i, &followers] { followers[i] = PushdownGet(); });
  }
  // Each follower counts its miss, then waits on the led key.
  while (Metric("cache.misses") < 1 + kFollowers) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  leader.Materialize();
  for (auto& t : threads) t.join();
  Failpoints::Global().DisarmAll();

  EXPECT_EQ(leader.status, 500) << "a failed body must not read as a 200";
  for (int i = 0; i < kFollowers; ++i) {
    SCOPED_TRACE("follower " + std::to_string(i));
    EXPECT_EQ(followers[i].status, 200);
    EXPECT_FALSE(followers[i].headers.Has(kCacheStatusHeader));
    EXPECT_EQ(followers[i].body(), baseline.body());
  }
  // Nothing was filled: every follower ran its own storlet.
  EXPECT_EQ(Metric("cache.fills"), 0);
  EXPECT_EQ(Metric("cache.coalesced"), 0);
  EXPECT_EQ(Metric("storlet.invocations") - invocations_before,
            1 + kFollowers);
}

TEST_F(CacheEndToEndTest, FaultMatrixKeepsEveryPathByteIdentical) {
  // The uncached baseline, taken with the cache off.
  cluster_->result_cache().set_enabled(false);
  HttpResponse baseline = PushdownGet();
  ASSERT_TRUE(baseline.ok());
  cluster_->result_cache().set_enabled(true);

  struct Scenario {
    const char* name;
    const char* site;  // nullptr = no fault
  };
  const Scenario scenarios[] = {
      {"healthy-cold", nullptr},
      {"lookup-fault", "cache.lookup"},
      {"fill-fault", "cache.fill"},
      {"healthy-hot", nullptr},
  };
  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    if (scenario.site != nullptr) {
      FailpointSpec spec;
      spec.error = Status::IOError("injected");
      ASSERT_TRUE(Failpoints::Global().Arm(scenario.site, spec).ok());
    }
    HttpResponse response = PushdownGet();
    ASSERT_TRUE(response.ok()) << response.status;
    EXPECT_EQ(response.body(), baseline.body());
    Failpoints::Global().DisarmAll();
  }
}

TEST_F(CacheEndToEndTest, PoisonedFillIsDroppedNeverServed) {
  FailpointSpec spec;
  spec.error = Status::IOError("fill poisoned");
  ASSERT_TRUE(Failpoints::Global().Arm("cache.fill", spec).ok());
  HttpResponse poisoned = PushdownGet();
  ASSERT_TRUE(poisoned.ok());
  EXPECT_EQ(Metric("cache.fills"), 0);
  EXPECT_GE(Metric("cache.drops"), 1);
  Failpoints::Global().DisarmAll();

  // The next query is a clean miss-and-fill, not a hit on poisoned state.
  HttpResponse refill = PushdownGet();
  ASSERT_TRUE(refill.ok());
  EXPECT_FALSE(refill.headers.Has(kCacheStatusHeader));
  EXPECT_EQ(refill.body(), poisoned.body());
  EXPECT_EQ(Metric("cache.fills"), 1);
}

TEST_F(CacheEndToEndTest, LookupAndFillSpansSitUnderProxyRequest) {
  // The collector is process-global: drop spans an earlier test or
  // --gtest_repeat iteration left behind.
  cluster_->traces().Clear();
  cluster_->traces().Enable();
  HttpResponse cold = PushdownGet();   // miss -> lookup + fill spans
  ASSERT_TRUE(cold.ok());
  HttpResponse hot = PushdownGet();    // hit -> lookup span only
  ASSERT_TRUE(hot.ok());
  cluster_->traces().Disable();

  std::vector<Span> spans = cluster_->traces().Snapshot();
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.span_id] = &s;
  int lookups = 0;
  int fills = 0;
  for (const Span& s : spans) {
    if (s.name != "cache.lookup" && s.name != "cache.fill") continue;
    (s.name == "cache.lookup" ? lookups : fills)++;
    // Each cache span hangs off the proxy's request span.
    auto parent = by_id.find(s.parent_id);
    ASSERT_NE(parent, by_id.end()) << s.name << " has unknown parent";
    EXPECT_EQ(parent->second->name, "proxy.request") << s.name;
  }
  EXPECT_EQ(lookups, 2);
  EXPECT_EQ(fills, 1);
}

// ---------------------------------------------------------------------------
// The repeated-query mix (workload/queries.h) the cache ablation drives.

TEST(RepeatedQueryMixTest, IsSeededDeterministicAndSkewed) {
  QueryMixConfig config;
  config.seed = 9;
  config.distinct_queries = 21;
  RepeatedQueryMix a(config);
  RepeatedQueryMix b(config);
  ASSERT_EQ(a.variants().size(), 21u);
  std::vector<int> counts(a.variants().size(), 0);
  for (int i = 0; i < 2000; ++i) {
    const MixedQuery& qa = a.Next();
    const MixedQuery& qb = b.Next();
    EXPECT_EQ(qa.name, qb.name);
    ++counts[static_cast<size_t>(&qa - a.variants().data())];
  }
  // Zipf head: rank 0 dominates every other rank.
  for (size_t r = 1; r < counts.size(); ++r) {
    EXPECT_GT(counts[0], counts[r]) << "rank " << r;
  }
  // Month substitution really changed the SQL text.
  EXPECT_NE(a.variants()[0].sql, a.variants()[7].sql);
  EXPECT_GT(a.ExpectedHitMass(4), a.ExpectedHitMass(1));
  EXPECT_NEAR(a.ExpectedHitMass(a.variants().size()), 1.0, 1e-9);
}

}  // namespace
}  // namespace scoop
