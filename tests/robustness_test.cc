// Failure-injection, concurrency and randomized end-to-end equivalence
// tests for the whole stack.
#include <gtest/gtest.h>

#include <thread>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/strings.h"
#include "scoop/scoop.h"
#include "sql/executor.h"
#include "storlets/headers.h"
#include "workload/generator.h"

namespace scoop {
namespace {

// A storlet that always fails; used to verify error propagation.
class FailingStorlet : public Storlet {
 public:
  std::string name() const override { return "failing"; }
  Status Invoke(StorletInputStream&, StorletOutputStream&,
                const StorletParams&, StorletLogger&) override {
    return Status::Internal("filter exploded");
  }
};

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SwiftConfig config;
    config.num_proxies = 2;
    config.num_storage_nodes = 4;
    config.disks_per_node = 2;
    config.part_power = 6;
    // QoS is on with an envelope generous enough that nothing throttles:
    // every request traverses the admission and fair-queue code paths
    // (so the qos.* failpoint sites below are live) without the limits
    // themselves ever shaping these tests.
    qos::QosConfig qos_config;
    qos_config.enabled = true;
    qos_config.gold = qos::QosTierLimits{1e9, 1e9, 8.0, 10'000};
    qos_config.bronze = qos::QosTierLimits{1e9, 1e9, 1.0, 10'000};
    qos_config.storlet_concurrency = 64;
    auto cluster =
        ScoopCluster::Create(config, ResultCacheConfig(), qos_config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->Connect("tenant", "key", "acct");
    ASSERT_TRUE(client.ok());
    session_ = std::make_unique<ScoopSession>(cluster_.get(),
                                              std::move(client).value(), 3);
    GeneratorConfig gen{.num_meters = 20, .readings_per_meter = 600,
                        .seed = 31};
    generator_ = std::make_unique<GridPocketGenerator>(gen);
    ASSERT_TRUE(
        generator_->Upload(&session_->client(), "meters", "m", 3).ok());
    schema_ = GridPocketGenerator::MeterSchema();
    CsvSourceOptions options;
    options.chunk_size = 32 * 1024;
    session_->RegisterCsvTable("meters", "meters", "m", schema_, true,
                               options);
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<ScoopSession> session_;
  std::unique_ptr<GridPocketGenerator> generator_;
  Schema schema_;
};

TEST_F(RobustnessTest, QueriesSurviveSingleDeviceFailure) {
  const char* kSql =
      "SELECT city, count(*) AS n FROM meters GROUP BY city ORDER BY city";
  auto healthy = session_->Sql(kSql);
  ASSERT_TRUE(healthy.ok());

  // Fail one device: every object still has two live replicas.
  auto devices = cluster_->swift().DevicesById();
  devices[0]->Fail();
  auto degraded = session_->Sql(kSql);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->table.ToCsv(), healthy->table.ToCsv());
  devices[0]->Repair();
}

TEST_F(RobustnessTest, QueriesSurviveWholeNodeFailure) {
  const char* kSql =
      "SELECT vid, sum(index) AS s FROM meters WHERE city LIKE 'Paris' "
      "GROUP BY vid ORDER BY vid";
  auto healthy = session_->Sql(kSql);
  ASSERT_TRUE(healthy.ok());
  // Take a whole storage node down (replicas are node-disjoint).
  for (auto& device : cluster_->swift().object_servers()[1]->devices()) {
    device->Fail();
  }
  auto degraded = session_->Sql(kSql);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->table.ToCsv(), healthy->table.ToCsv());
  for (auto& device : cluster_->swift().object_servers()[1]->devices()) {
    device->Repair();
  }
}

TEST_F(RobustnessTest, WriteFailsWithoutQuorum) {
  // Fail every device: no replica can be written.
  auto devices = cluster_->swift().DevicesById();
  for (Device* device : devices) device->Fail();
  Status s = session_->client().PutObject("meters", "new-object", "data");
  EXPECT_FALSE(s.ok());
  for (Device* device : devices) device->Repair();
  EXPECT_TRUE(
      session_->client().PutObject("meters", "new-object", "data").ok());
  ASSERT_TRUE(session_->client().DeleteObject("meters", "new-object").ok());
}

TEST_F(RobustnessTest, FailingStorletSurfacesAsError) {
  ASSERT_TRUE(cluster_->engine()
                  .registry()
                  .RegisterFactory("failing",
                                   [] {
                                     return std::make_unique<FailingStorlet>();
                                   })
                  .ok());
  ASSERT_TRUE(cluster_->engine().registry().Deploy("failing").ok());
  Request request = Request::Get("/acct/meters/m0000.csv");
  request.headers.Set(kRunStorletHeader, "failing");
  HttpResponse response = session_->client().Send(std::move(request));
  EXPECT_EQ(response.status, 500);
  // The stored object is untouched and still readable.
  EXPECT_TRUE(session_->client().GetObject("meters", "m0000.csv").ok());
}

TEST_F(RobustnessTest, MalformedPushdownHeadersRejectedCleanly) {
  Request bad_selection = Request::Get("/acct/meters/m0000.csv");
  bad_selection.headers.Set(kRunStorletHeader, "csvstorlet");
  bad_selection.headers.Set("X-Storlet-Parameter-Schema",
                            schema_.ToSpec());
  bad_selection.headers.Set("X-Storlet-Parameter-Selection", "((((");
  HttpResponse response = session_->client().Send(std::move(bad_selection));
  EXPECT_EQ(response.status, 500);

  Request bad_schema = Request::Get("/acct/meters/m0000.csv");
  bad_schema.headers.Set(kRunStorletHeader, "csvstorlet");
  bad_schema.headers.Set("X-Storlet-Parameter-Schema", "no-colon-here");
  response = session_->client().Send(std::move(bad_schema));
  EXPECT_EQ(response.status, 500);

  // A selection nested far past SourceFilter::kMaxParseDepth is rejected
  // before the parser's recursion can overflow the stage thread's stack.
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += "(not ";
  deep += "(eq vid 1)";
  deep.append(100000, ')');
  Request deep_selection = Request::Get("/acct/meters/m0000.csv");
  deep_selection.headers.Set(kRunStorletHeader, "csvstorlet");
  deep_selection.headers.Set("X-Storlet-Parameter-Schema", schema_.ToSpec());
  deep_selection.headers.Set("X-Storlet-Parameter-Selection", deep);
  response = session_->client().Send(std::move(deep_selection));
  EXPECT_EQ(response.status, 500);

  // Random binary garbage as parameters must not crash anything.
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    Request fuzz = Request::Get("/acct/meters/m0000.csv");
    fuzz.headers.Set(kRunStorletHeader, "csvstorlet");
    std::string garbage;
    for (int b = 0; b < 40; ++b) {
      char c = static_cast<char>(rng.NextBounded(94) + 33);  // printable
      garbage.push_back(c);
    }
    fuzz.headers.Set("X-Storlet-Parameter-Selection", garbage);
    fuzz.headers.Set("X-Storlet-Parameter-Schema", schema_.ToSpec());
    HttpResponse r = session_->client().Send(std::move(fuzz));
    EXPECT_TRUE(r.status == 200 || r.status == 500) << r.status;
  }
}

TEST_F(RobustnessTest, ConcurrentQueriesFromManyThreads) {
  const char* kQueries[] = {
      "SELECT city, count(*) AS n FROM meters GROUP BY city ORDER BY city",
      "SELECT vid, sum(index) AS s FROM meters WHERE city LIKE 'R%' "
      "GROUP BY vid ORDER BY vid",
      "SELECT count(*) AS n FROM meters WHERE state LIKE 'FRA'",
      "SELECT vid FROM meters WHERE date LIKE '2015-01-01 00:0%' "
      "ORDER BY vid LIMIT 20",
  };
  // Reference answers, sequential.
  std::vector<std::string> expected;
  for (const char* sql : kQueries) {
    auto outcome = session_->Sql(sql);
    ASSERT_TRUE(outcome.ok()) << sql;
    expected.push_back(outcome->table.ToCsv());
  }
  // Hammer the same cluster from several sessions in parallel.
  std::vector<std::thread> threads;
  std::vector<Status> statuses(8, Status::OK());
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      auto client = cluster_->Connect("tenant-" + std::to_string(t), "key",
                                      "acct");
      if (!client.ok()) {
        statuses[t] = client.status();
        return;
      }
      ScoopSession local(cluster_.get(), std::move(client).value(), 2);
      CsvSourceOptions options;
      options.chunk_size = 16 * 1024 + static_cast<uint64_t>(t) * 4096;
      local.RegisterCsvTable("meters", "meters", "m", schema_, t % 2 == 0,
                             options);
      for (int round = 0; round < 3; ++round) {
        for (size_t q = 0; q < 4; ++q) {
          auto outcome = local.Sql(kQueries[q]);
          if (!outcome.ok()) {
            statuses[t] = outcome.status();
            return;
          }
          if (outcome->table.ToCsv() != expected[q]) {
            statuses[t] = Status::Internal("result mismatch in thread");
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s;
}


TEST_F(RobustnessTest, ScaleOutMigratesDataAndKeepsResults) {
  const char* kSql =
      "SELECT city, sum(index) AS s FROM meters WHERE date LIKE "
      "'2015-01-0%' GROUP BY city ORDER BY city";
  auto before = session_->Sql(kSql);
  ASSERT_TRUE(before.ok());
  size_t old_devices = cluster_->swift().ring().devices().size();

  ASSERT_TRUE(cluster_->AddStorageNode(2).ok());
  const Ring& ring = cluster_->swift().ring();
  ASSERT_EQ(ring.devices().size(), old_devices + 2);

  // The new devices took on a meaningful share of replica assignments.
  std::vector<int> counts = ring.ReplicaCountsPerDevice();
  double fair = 3.0 * ring.partition_count() /
                static_cast<double>(counts.size());
  for (size_t d = old_devices; d < counts.size(); ++d) {
    EXPECT_GT(counts[d], static_cast<int>(fair * 0.5)) << "device " << d;
  }

  // Data migrated: the new node physically holds objects.
  auto& new_server = cluster_->swift().object_servers().back();
  size_t stored = 0;
  for (auto& device : new_server->devices()) stored += device->ObjectCount();
  EXPECT_GT(stored, 0u);

  // Every object is exactly replica_count-replicated (handoffs removed).
  auto devices = cluster_->swift().DevicesById();
  auto list = session_->client().ListObjects("meters");
  ASSERT_TRUE(list.ok());
  for (const ObjectInfo& info : *list) {
    std::string path = "/acct/meters/" + info.name;
    int copies = 0;
    for (Device* device : devices) {
      if (device->Exists(path)) ++copies;
    }
    EXPECT_EQ(copies, 3) << path;
  }

  // Queries (with pushdown on the new node too) still agree.
  auto after = session_->Sql(kSql);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->table.ToCsv(), before->table.ToCsv());
  EXPECT_GT(after->stats.partitions_pushdown, 0);
}

TEST_F(RobustnessTest, RebalanceMovesMinimalAssignments) {
  const Ring& before = cluster_->swift().ring();
  std::vector<std::vector<int>> old_assignment;
  for (int p = 0; p < before.partition_count(); ++p) {
    old_assignment.push_back(before.GetPartitionDevices(
        static_cast<uint32_t>(p)));
  }
  size_t old_devices = before.devices().size();
  ASSERT_TRUE(cluster_->swift().AddStorageNode(2).ok());
  const Ring& after = cluster_->swift().ring();
  int moved = 0;
  int total = 0;
  for (int p = 0; p < after.partition_count(); ++p) {
    const auto& now = after.GetPartitionDevices(static_cast<uint32_t>(p));
    for (size_t r = 0; r < now.size(); ++r) {
      ++total;
      if (now[r] != old_assignment[static_cast<size_t>(p)][r]) ++moved;
    }
  }
  // Only roughly the new devices' fair share may move, not a full reshuffle.
  double new_share = 2.0 / static_cast<double>(old_devices + 2);
  EXPECT_LT(moved, static_cast<int>(total * new_share * 1.5) + 2);
  EXPECT_GT(moved, 0);
}

// Cross-account access cannot be bootstrapped through storlet headers.
TEST_F(RobustnessTest, StorletHeadersDontBypassAuth) {
  auto other = cluster_->Connect("intruder", "key", "intruder");
  ASSERT_TRUE(other.ok());
  Request request = Request::Get("/acct/meters/m0000.csv");
  request.headers.Set(kRunStorletHeader, "csvstorlet");
  request.headers.Set("X-Storlet-Parameter-Schema", schema_.ToSpec());
  HttpResponse response = other->Send(std::move(request));
  EXPECT_EQ(response.status, 403);
}

// Regression for the proxy read path: kill the primary replica's device
// outright (not via a failpoint) and the GET must transparently serve
// from a survivor, counting the failover.
TEST_F(RobustnessTest, GetSurvivesPrimaryDeviceDeath) {
  const std::string path = "/acct/meters/m0000.csv";
  auto healthy = session_->client().GetObject("meters", "m0000.csv");
  ASSERT_TRUE(healthy.ok());

  const std::vector<int>& replicas = cluster_->swift().ring().GetNodes(path);
  ASSERT_FALSE(replicas.empty());
  auto devices = cluster_->swift().DevicesById();
  Device* primary = devices[static_cast<size_t>(replicas[0])];
  primary->Fail();
  int64_t failovers_before =
      cluster_->metrics().GetCounter("proxy.failovers")->value();

  auto degraded = session_->client().GetObject("meters", "m0000.csv");
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(*degraded, *healthy);
  EXPECT_GT(cluster_->metrics().GetCounter("proxy.failovers")->value(),
            failovers_before);
  primary->Repair();
}

// ---------------------------------------------------------------------------
// Every failpoint site, exercised end to end: arm the site, drive the
// operation that traverses it, and assert both the client-visible status
// and the fault accounting (hits/fires and the faults.injected mirror).

class FailpointSiteTest : public RobustnessTest,
                          public ::testing::WithParamInterface<const char*> {
 protected:
  void TearDown() override { Failpoints::Global().DisarmAll(); }

  HttpResponse PushdownGet() {
    Request request = Request::Get("/acct/meters/m0000.csv");
    request.headers.Set(kRunStorletHeader, "csvstorlet");
    request.headers.Set("X-Storlet-Parameter-Schema", schema_.ToSpec());
    return session_->client().Send(std::move(request));
  }
};

TEST_P(FailpointSiteTest, InjectedFaultSurfacesAndIsCounted) {
  const std::string site = GetParam();
  SwiftClient& client = session_->client();
  Counter* injected = cluster_->metrics().GetCounter("faults.injected");
  const int64_t injected_before = injected->value();

  FailpointSpec spec;
  spec.error = Status::IOError("injected at " + site);
  ASSERT_TRUE(Failpoints::Global().Arm(site, spec).ok());

  // Checked inside each branch, before any mid-test disarm resets the
  // per-site counters.
  auto expect_counted = [&] {
    EXPECT_GT(Failpoints::Global().hits(site), 0) << site;
    EXPECT_GT(Failpoints::Global().fires(site), 0) << site;
    EXPECT_GT(injected->value(), injected_before) << site;
  };

  if (site == "device.read" || site == "object.read.chunk" ||
      site == "proxy.backend") {
    // Unkeyed: every replica path is faulted, so the read must fail with
    // a status — never hang, never hand back partial or bogus bytes.
    auto got = client.GetObject("meters", "m0000.csv");
    EXPECT_FALSE(got.ok()) << site;
    expect_counted();
  } else if (site == "device.write") {
    EXPECT_FALSE(client.PutObject("meters", "doomed", "x").ok());
    expect_counted();
    Failpoints::Global().DisarmAll();
    EXPECT_FALSE(client.GetObject("meters", "doomed").ok())
        << "a no-quorum write must not be readable";
  } else if (site == "device.delete") {
    EXPECT_FALSE(client.DeleteObject("meters", "m0000.csv").ok());
    expect_counted();
    Failpoints::Global().DisarmAll();
    EXPECT_TRUE(client.GetObject("meters", "m0000.csv").ok())
        << "the object must survive a failed delete";
  } else if (site == "replicator.push") {
    const std::string path = "/acct/meters/m0000.csv";
    auto devices = cluster_->swift().DevicesById();
    const auto& replicas = cluster_->swift().ring().GetNodes(path);
    ASSERT_TRUE(devices[static_cast<size_t>(replicas[0])]->Delete(path).ok());
    cluster_->swift().read_repair_queue().Enqueue(path);
    Replicator::Report report = cluster_->swift().RunReadRepair();
    EXPECT_EQ(report.replicas_repaired, 0);
    EXPECT_GE(report.replicas_unreachable, 1);
    expect_counted();
    Failpoints::Global().DisarmAll();
    cluster_->swift().read_repair_queue().Enqueue(path);
    EXPECT_EQ(cluster_->swift().RunReadRepair().replicas_repaired, 1);
  } else if (site == "middleware.get" || site == "engine.invoke") {
    HttpResponse response = PushdownGet();
    EXPECT_EQ(response.status, 500) << site;
    expect_counted();
  } else if (site == "engine.stage_crash") {
    HttpResponse response = PushdownGet();
    // The pipeline starts streaming (200), then the stage dies; the error
    // is committed when the body is drained.
    response.Materialize();
    EXPECT_EQ(response.status, 500);
    expect_counted();
  } else if (site == "cache.lookup" || site == "cache.fill") {
    // Cache faults degrade instead of surfacing: the query succeeds with
    // the uncached bytes, and a poisoned fill is dropped, never served.
    // The reference runs before the cache is enabled, so the armed site
    // is not evaluated yet.
    HttpResponse reference = PushdownGet();
    reference.Materialize();
    ASSERT_TRUE(reference.ok());
    cluster_->result_cache().set_enabled(true);
    HttpResponse faulted = PushdownGet();
    faulted.Materialize();
    EXPECT_TRUE(faulted.ok()) << site;
    EXPECT_EQ(faulted.body(), reference.body()) << site;
    expect_counted();
    // Neither a bypassed lookup nor a dropped fill caches anything.
    EXPECT_EQ(cluster_->metrics().GetCounter("cache.fills")->value(), 0)
        << site;
    cluster_->result_cache().set_enabled(false);
  } else if (site == "qos.admit" || site == "qos.queue") {
    // QoS faults take the degrade rung, never an error: the pushdown GET
    // still succeeds, serving the raw object bytes (the client's
    // fallback filter keeps results byte-identical), and a plain GET
    // rides free — chaos at the QoS layer must not 503 plain reads.
    auto raw = client.GetObject("meters", "m0000.csv");
    ASSERT_TRUE(raw.ok()) << site << ": " << raw.status();
    HttpResponse faulted = PushdownGet();
    faulted.Materialize();
    EXPECT_TRUE(faulted.ok()) << site << ": " << faulted.status;
    EXPECT_FALSE(faulted.headers.Has(kStorletExecutedHeader)) << site;
    EXPECT_EQ(faulted.body(), *raw) << site;
    expect_counted();
    // With the site disarmed the same request pushes down again.
    Failpoints::Global().DisarmAll();
    HttpResponse healed = PushdownGet();
    healed.Materialize();
    EXPECT_TRUE(healed.ok()) << site;
    EXPECT_TRUE(healed.headers.Has(kStorletExecutedHeader)) << site;
  } else {
    FAIL() << "no driver for failpoint site " << site
           << " — extend this test when adding sites";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, FailpointSiteTest, ::testing::ValuesIn(kFailpointSites),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Seeded soak: concurrent PUT / GET / pushdown traffic under a background
// probabilistic fault schedule. Individual operations may fail, but the
// system must never serve wrong bytes, and once the faults clear one
// repair + replication pass must converge every replica set.

// Self-describing soak payload: pure function of (writer, object, round),
// so a reader can verify any GET against no shared state.
std::string SoakPayload(int writer, int object, int round) {
  std::string payload = StrFormat("soak-%d-%d-%d:", writer, object, round);
  Rng rng(static_cast<uint64_t>(writer) * 1'000'003 +
          static_cast<uint64_t>(object) * 1'009 +
          static_cast<uint64_t>(round));
  while (payload.size() < 8192) {
    payload += static_cast<char>('a' + rng.NextBounded(26));
  }
  return payload;
}

TEST(ChaosSoakTest, SeededFaultMixConvergesAfterRepair) {
  // One proxy: timestamps are strictly monotone, so last-write-wins has a
  // single well-defined winner for every object and convergence is exact.
  SwiftConfig config;
  config.num_proxies = 1;
  config.num_storage_nodes = 3;
  config.disks_per_node = 2;
  config.part_power = 5;
  auto cluster_or = ScoopCluster::Create(config);
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status();
  auto cluster = std::move(cluster_or).value();
  auto client_or = cluster->Connect("tenant", "key", "acct");
  ASSERT_TRUE(client_or.ok());
  SwiftClient client = std::move(client_or).value();
  ASSERT_TRUE(client.CreateContainer("soak").ok());

  // Pushdown leg: a small meter table plus its fault-free answer.
  GeneratorConfig gen{.num_meters = 4, .readings_per_meter = 250, .seed = 9};
  GridPocketGenerator generator(gen);
  ScoopSession session(cluster.get(), client, /*num_workers=*/2);
  ASSERT_TRUE(generator.Upload(&session.client(), "meters", "m", 2).ok());
  CsvSourceOptions options;
  options.chunk_size = 16 * 1024;
  session.RegisterCsvTable("meters", "meters", "m",
                           GridPocketGenerator::MeterSchema(), true, options);
  const char* kSql =
      "SELECT city, count(*) AS n FROM meters GROUP BY city ORDER BY city";
  auto healthy = session.Sql(kSql);
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  const std::string healthy_csv = healthy->table.ToCsv();

  // Background fault schedule, all drawn from SCOOP_FAILPOINT_SEED.
  auto arm = [](const char* site, double p) {
    FailpointSpec spec;
    spec.probability = p;
    spec.error = Status::IOError(std::string("soak fault at ") + site);
    ASSERT_TRUE(Failpoints::Global().Arm(site, spec).ok());
  };
  arm("device.read", 0.04);
  arm("device.write", 0.04);
  arm("proxy.backend", 0.02);
  arm("engine.stage_crash", 0.15);

  constexpr int kWriters = 3;
  constexpr int kObjectsPerWriter = 6;
  constexpr int kRounds = 4;
  std::vector<std::thread> threads;
  // Writers: each owns its objects; failed PUTs are tolerated (the fault
  // schedule causes some), correctness is judged after repair.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      SwiftClient mine = client;
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kObjectsPerWriter; ++i) {
          std::string name = StrFormat("obj-%d-%d", w, i);
          // Soak writers race injected faults; failed PUTs are the point
          // (readers assert they only ever see complete versions).
          mine.PutObject("soak", name, SoakPayload(w, i, round))
              .IgnoreError();
        }
      }
    });
  }
  // Readers: any successful GET must return exactly some version its
  // writer produced — faults may fail a read, never falsify one.
  std::vector<Status> reader_status(2, Status::OK());
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      SwiftClient mine = client;
      Rng rng(1234 + static_cast<uint64_t>(r));
      for (int i = 0; i < 80; ++i) {
        int w = static_cast<int>(rng.NextBounded(kWriters));
        int o = static_cast<int>(rng.NextBounded(kObjectsPerWriter));
        auto got = mine.GetObject("soak", StrFormat("obj-%d-%d", w, o));
        if (!got.ok()) continue;  // not written yet, or a fault surfaced
        bool valid = false;
        for (int round = 0; round < kRounds; ++round) {
          if (*got == SoakPayload(w, o, round)) valid = true;
        }
        if (!valid) {
          reader_status[static_cast<size_t>(r)] = Status::Internal(
              "GET returned bytes no writer produced: " +
              got->substr(0, 40));
          return;
        }
      }
    });
  }
  // Pushdown queries under fire: may fail, must never be wrong.
  Status query_status = Status::OK();
  threads.emplace_back([&] {
    for (int i = 0; i < 4; ++i) {
      auto outcome = session.Sql(kSql);
      if (!outcome.ok()) continue;
      if (outcome->table.ToCsv() != healthy_csv) {
        query_status = Status::Internal("query result changed under faults");
        return;
      }
    }
  });
  for (auto& thread : threads) thread.join();
  for (const Status& s : reader_status) EXPECT_TRUE(s.ok()) << s;
  EXPECT_TRUE(query_status.ok()) << query_status;
  EXPECT_GT(cluster->metrics().GetCounter("faults.injected")->value(), 0)
      << "the soak must actually have injected faults";

  // Faults clear; heal (read-repair first, then a full scan) and verify
  // every surviving object's replica set is converged and byte-identical
  // to a version its writer produced.
  Failpoints::Global().DisarmAll();
  cluster->swift().RunReadRepair();
  cluster->swift().RunReplication();
  auto devices = cluster->swift().DevicesById();
  const Ring& ring = cluster->swift().ring();
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kObjectsPerWriter; ++i) {
      std::string path = StrFormat("/acct/soak/obj-%d-%d", w, i);
      SCOPED_TRACE(path);
      const std::vector<int>& replicas = ring.GetNodes(path);
      // At least one PUT for this object succeeded on some replica with
      // overwhelming probability; repair must then have cloned the newest
      // copy onto every assigned device.
      std::vector<std::string> copies;
      for (int device : replicas) {
        auto stored = devices[static_cast<size_t>(device)]->GetShared(path);
        if (stored.ok()) copies.push_back((*stored)->data);
      }
      ASSERT_FALSE(copies.empty());
      EXPECT_EQ(copies.size(), replicas.size())
          << "repair must restore every assigned replica";
      for (const std::string& copy : copies) {
        EXPECT_EQ(copy, copies.front()) << "replicas must converge";
      }
      bool valid = false;
      for (int round = 0; round < kRounds; ++round) {
        if (copies.front() == SoakPayload(w, i, round)) valid = true;
      }
      EXPECT_TRUE(valid) << "converged bytes must be a written version";
      // The client reads the converged bytes back.
      auto got = client.GetObject("soak", StrFormat("obj-%d-%d", w, i));
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, copies.front());
    }
  }
}

// Randomized end-to-end equivalence: random queries over the generated
// dataset must produce identical results via (a) pushdown, (b) plain
// ingest, and (c) the single-process reference evaluator.
class RandomQueryEquivalence : public RobustnessTest,
                               public ::testing::WithParamInterface<int> {};

TEST_P(RandomQueryEquivalence, PushdownPlainReferenceAgree) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919);
  const char* kAggs[] = {"sum(index)", "count(*)", "min(sumHC)",
                         "max(sumHP)", "avg(index)"};
  const char* kGroups[] = {"city", "state", "vid",
                           "SUBSTRING(date, 0, 10)", "region"};
  const char* kPredicates[] = {
      "date LIKE '2015-01-0%'",
      "city LIKE 'R%'",
      "state IN ('FRA', 'NLD')",
      "index BETWEEN 1000 AND 100000",
      "vid >= 1005",
      "sumHP > sumHC",  // residual-only (column vs column)
      "region IS NOT NULL",
  };
  // Build a random aggregate query.
  std::string group = kGroups[rng.NextIndex(5)];
  std::string agg = kAggs[rng.NextIndex(5)];
  std::string sql = "SELECT " + group + " AS k, " + agg + " AS v FROM __TABLE__";
  size_t preds = rng.NextBounded(3);
  for (size_t i = 0; i < preds; ++i) {
    sql += (i == 0 ? " WHERE " : " AND ");
    sql += kPredicates[rng.NextIndex(7)];
  }
  sql += " GROUP BY " + group + " ORDER BY k";
  if (rng.NextBool(0.3)) sql += " LIMIT " + std::to_string(rng.NextInt(1, 8));

  CsvSourceOptions plain_options;
  plain_options.chunk_size = 8 * 1024 + rng.NextBounded(64 * 1024);
  session_->RegisterCsvTable("plainMeters", "meters", "m", schema_, false,
                             plain_options);

  auto with_table = [&sql](const std::string& table) {
    std::string out = sql;
    out.replace(out.find("__TABLE__"), 9, table);
    return out;
  };
  auto pushdown = session_->Sql(with_table("meters"));
  ASSERT_TRUE(pushdown.ok()) << sql << ": " << pushdown.status();
  auto plain = session_->Sql(with_table("plainMeters"));
  ASSERT_TRUE(plain.ok()) << sql;
  EXPECT_EQ(pushdown->table.ToCsv(), plain->table.ToCsv()) << sql;

  auto reference = ExecuteSqlOverRows(with_table("meters"), schema_,
                                      generator_->MakeAllRows());
  ASSERT_TRUE(reference.ok()) << sql;
  EXPECT_EQ(pushdown->table.ToCsv(), reference->ToCsv()) << sql;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryEquivalence,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace scoop
