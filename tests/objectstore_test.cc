#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "objectstore/cluster.h"
#include "objectstore/http.h"
#include "objectstore/object_server.h"
#include "objectstore/ring.h"

namespace scoop {
namespace {

TEST(ObjectPathTest, ParsesAllLevels) {
  auto account = ObjectPath::Parse("/acct");
  ASSERT_TRUE(account.ok());
  EXPECT_TRUE(account->IsAccount());

  auto container = ObjectPath::Parse("/acct/cont");
  ASSERT_TRUE(container.ok());
  EXPECT_TRUE(container->IsContainer());

  auto object = ObjectPath::Parse("/acct/cont/dir/obj.csv");
  ASSERT_TRUE(object.ok());
  EXPECT_TRUE(object->IsObject());
  EXPECT_EQ(object->object, "dir/obj.csv");
  EXPECT_EQ(object->ToString(), "/acct/cont/dir/obj.csv");
}

TEST(ObjectPathTest, RejectsMalformed) {
  EXPECT_FALSE(ObjectPath::Parse("").ok());
  EXPECT_FALSE(ObjectPath::Parse("noslash").ok());
  EXPECT_FALSE(ObjectPath::Parse("/").ok());
}

TEST(ByteRangeTest, ExplicitRange) {
  auto r = ByteRange::Parse("bytes=10-19", 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first, 10u);
  EXPECT_EQ(r->last, 19u);
  EXPECT_EQ(r->length(), 10u);
}

TEST(ByteRangeTest, OpenEndedAndSuffix) {
  auto open = ByteRange::Parse("bytes=90-", 100);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->last, 99u);

  auto suffix = ByteRange::Parse("bytes=-10", 100);
  ASSERT_TRUE(suffix.ok());
  EXPECT_EQ(suffix->first, 90u);
  EXPECT_EQ(suffix->last, 99u);
}

TEST(ByteRangeTest, ClampsAndRejects) {
  auto clamped = ByteRange::Parse("bytes=50-1000", 100);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->last, 99u);

  EXPECT_FALSE(ByteRange::Parse("bytes=100-200", 100).ok());  // past end
  EXPECT_FALSE(ByteRange::Parse("bytes=20-10", 100).ok());
  EXPECT_FALSE(ByteRange::Parse("items=1-2", 100).ok());
  EXPECT_FALSE(ByteRange::Parse("bytes=1-2,5-6", 100).ok());
}

TEST(ByteRangeTest, SuffixLargerThanObjectIsWholeObject) {
  // RFC 7233: a suffix longer than the representation selects it all.
  auto r = ByteRange::Parse("bytes=-200", 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first, 0u);
  EXPECT_EQ(r->last, 99u);
  EXPECT_EQ(r->length(), 100u);
}

TEST(ByteRangeTest, SingleByteRange) {
  auto r = ByteRange::Parse("bytes=5-5", 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first, 5u);
  EXPECT_EQ(r->last, 5u);
  EXPECT_EQ(r->length(), 1u);
}

TEST(ByteRangeTest, EmptyObjectIsUnsatisfiable) {
  // No byte range can be satisfied against a zero-length object.
  EXPECT_FALSE(ByteRange::Parse("bytes=-10", 0).ok());
  EXPECT_FALSE(ByteRange::Parse("bytes=0-0", 0).ok());
  EXPECT_FALSE(ByteRange::Parse("bytes=0-", 0).ok());
}

TEST(ByteRangeTest, FirstAtObjectSizeIsUnsatisfiable) {
  EXPECT_FALSE(ByteRange::Parse("bytes=100-", 100).ok());
  auto last_byte = ByteRange::Parse("bytes=99-", 100);
  ASSERT_TRUE(last_byte.ok());
  EXPECT_EQ(last_byte->first, 99u);
  EXPECT_EQ(last_byte->last, 99u);
}

TEST(HeadersTest, CaseInsensitive) {
  Headers headers;
  headers.Set("X-Run-Storlet", "csv");
  EXPECT_TRUE(headers.Has("x-run-storlet"));
  EXPECT_EQ(headers.GetOr("X-RUN-STORLET", ""), "csv");
  headers.Remove("x-Run-Storlet");
  EXPECT_FALSE(headers.Has("X-Run-Storlet"));
}

class RingBalanceTest : public ::testing::TestWithParam<int> {};

TEST_P(RingBalanceTest, ReplicasBalancedAcrossDevices) {
  int nodes = GetParam();
  std::vector<RingDevice> devices;
  for (int n = 0; n < nodes; ++n) {
    for (int d = 0; d < 4; ++d) {
      RingDevice dev;
      dev.node = n;
      // Evenly-sized zones: with unequal zones Swift-style placement
      // correctly skews load toward small zones, which is not what this
      // balance test is about.
      dev.zone = n % 2;
      devices.push_back(dev);
    }
  }
  auto ring = Ring::Build(devices, /*part_power=*/10, /*replica_count=*/3);
  ASSERT_TRUE(ring.ok());
  std::vector<int> counts = ring->ReplicaCountsPerDevice();
  double expected = 3.0 * ring->partition_count() / counts.size();
  for (int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.25)
        << "device far from its fair share";
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, RingBalanceTest,
                         ::testing::Values(2, 4, 8, 16));

TEST(RingTest, ReplicasOnDistinctDevicesAndNodes) {
  std::vector<RingDevice> devices;
  for (int n = 0; n < 6; ++n) {
    for (int d = 0; d < 2; ++d) {
      RingDevice dev;
      dev.node = n;
      dev.zone = n % 2;
      devices.push_back(dev);
    }
  }
  auto ring = Ring::Build(devices, 8, 3);
  ASSERT_TRUE(ring.ok());
  for (int p = 0; p < ring->partition_count(); ++p) {
    const auto& replicas = ring->GetPartitionDevices(p);
    ASSERT_EQ(replicas.size(), 3u);
    std::set<int> unique_devices(replicas.begin(), replicas.end());
    EXPECT_EQ(unique_devices.size(), 3u);
    std::set<int> unique_nodes;
    for (int d : replicas) unique_nodes.insert(ring->devices()[d].node);
    EXPECT_EQ(unique_nodes.size(), 3u) << "replicas share a node";
  }
}

TEST(RingTest, WeightsShiftLoad) {
  std::vector<RingDevice> devices(4);
  devices[0].weight = 3.0;  // should get ~3x the partitions
  for (int i = 0; i < 4; ++i) devices[i].node = i;
  auto ring = Ring::Build(devices, 10, 1);
  ASSERT_TRUE(ring.ok());
  auto counts = ring->ReplicaCountsPerDevice();
  EXPECT_GT(counts[0], counts[1] * 2);
}

TEST(RingTest, LookupDeterministicAndUniform) {
  std::vector<RingDevice> devices(8);
  for (int i = 0; i < 8; ++i) devices[i].node = i;
  auto ring = Ring::Build(devices, 8, 2);
  ASSERT_TRUE(ring.ok());
  EXPECT_EQ(ring->GetPartition("/a/c/obj1"), ring->GetPartition("/a/c/obj1"));
  // Chi-square-ish sanity: object keys spread over partitions.
  std::vector<int> hits(ring->partition_count(), 0);
  for (int i = 0; i < 20000; ++i) {
    ++hits[ring->GetPartition("/acct/cont/object-" + std::to_string(i))];
  }
  double expected = 20000.0 / ring->partition_count();
  int overloaded = 0;
  for (int h : hits) {
    if (std::abs(h - expected) > expected) ++overloaded;
  }
  EXPECT_LT(overloaded, ring->partition_count() / 10);
}

TEST(RingTest, RejectsBadInput) {
  EXPECT_FALSE(Ring::Build({}, 8, 3).ok());
  std::vector<RingDevice> one(1);
  EXPECT_FALSE(Ring::Build(one, 8, 0).ok());
  EXPECT_FALSE(Ring::Build(one, -1, 1).ok());
  std::vector<RingDevice> bad_weight(2);
  bad_weight[0].weight = 0.0;
  EXPECT_FALSE(Ring::Build(bad_weight, 4, 1).ok());
}

class SwiftClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SwiftConfig config;
    config.num_proxies = 2;
    config.num_storage_nodes = 4;
    config.disks_per_node = 2;
    config.part_power = 6;
    auto cluster = SwiftCluster::Create(config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    auto client = SwiftClient::Connect(cluster_.get(), "tenant", "key", "acct");
    ASSERT_TRUE(client.ok()) << client.status();
    client_ = std::make_unique<SwiftClient>(std::move(client).value());
  }

  std::unique_ptr<SwiftCluster> cluster_;
  std::unique_ptr<SwiftClient> client_;
};

TEST_F(SwiftClusterTest, PutGetDeleteObject) {
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  ASSERT_TRUE(client_->PutObject("data", "obj", "hello world").ok());
  auto body = client_->GetObject("data", "obj");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "hello world");
  auto size = client_->ObjectSize("data", "obj");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
  ASSERT_TRUE(client_->DeleteObject("data", "obj").ok());
  EXPECT_TRUE(client_->GetObject("data", "obj").status().IsNotFound());
}

TEST_F(SwiftClusterTest, PutWithoutContainerFails) {
  EXPECT_TRUE(client_->PutObject("nope", "obj", "x").IsNotFound());
}

TEST_F(SwiftClusterTest, RangeReads) {
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  ASSERT_TRUE(client_->PutObject("data", "obj", "0123456789").ok());
  auto range = client_->GetObjectRange("data", "obj", 2, 5);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(*range, "2345");
  EXPECT_FALSE(client_->GetObjectRange("data", "obj", 50, 60).ok());
}

TEST_F(SwiftClusterTest, OverwriteKeepsLatest) {
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  ASSERT_TRUE(client_->PutObject("data", "obj", "v1").ok());
  ASSERT_TRUE(client_->PutObject("data", "obj", "v2-longer").ok());
  auto body = client_->GetObject("data", "obj");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "v2-longer");
  auto list = client_->ListObjects("data");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].size, 9u);
}

TEST_F(SwiftClusterTest, ListingWithPrefix) {
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  ASSERT_TRUE(client_->PutObject("data", "part-0", "a").ok());
  ASSERT_TRUE(client_->PutObject("data", "part-1", "b").ok());
  ASSERT_TRUE(client_->PutObject("data", "other", "c").ok());
  auto list = client_->ListObjects("data", "part-");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].name, "part-0");
  EXPECT_EQ((*list)[1].name, "part-1");
}

TEST_F(SwiftClusterTest, AuthRejectsBadToken) {
  Request request = Request::Get("/acct/data/obj");
  request.headers.Set(kAuthTokenHeader, "bogus");
  EXPECT_EQ(cluster_->Handle(std::move(request)).status, 401);

  Request no_token = Request::Get("/acct/data/obj");
  EXPECT_EQ(cluster_->Handle(std::move(no_token)).status, 401);
}

TEST_F(SwiftClusterTest, AuthRejectsCrossAccountAccess) {
  auto other = SwiftClient::Connect(cluster_.get(), "other", "k2", "acct2");
  ASSERT_TRUE(other.ok());
  // `other`'s token must not access account `acct`.
  Request request = Request::Get("/acct/data/obj");
  HttpResponse response = other->Send(std::move(request));
  EXPECT_EQ(response.status, 403);
}

TEST_F(SwiftClusterTest, ObjectsReplicatedToRingDevices) {
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  ASSERT_TRUE(client_->PutObject("data", "obj", "payload").ok());
  const std::string path = "/acct/data/obj";
  const std::vector<int>& replicas = cluster_->ring().GetNodes(path);
  EXPECT_EQ(replicas.size(), 3u);
  auto devices = cluster_->DevicesById();
  int copies = 0;
  for (int id : replicas) {
    if (devices[id]->Exists(path)) ++copies;
  }
  EXPECT_EQ(copies, 3);
}

TEST_F(SwiftClusterTest, PutRecordsSizeAndStoresPayloadOnEveryReplica) {
  // The proxy hands the last replica the request body itself rather than
  // a copy; the listing must still record the payload's size, and every
  // replica must hold the full payload.
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  std::string payload(kIntegrityChunkSize + 17, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i * 31) % 26);
  }
  ASSERT_TRUE(client_->PutObject("data", "obj", payload).ok());
  auto list = client_->ListObjects("data");
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].size, payload.size());
  const std::string path = "/acct/data/obj";
  auto devices = cluster_->DevicesById();
  const std::vector<int>& replicas = cluster_->ring().GetNodes(path);
  ASSERT_EQ(replicas.size(), 3u);
  for (int id : replicas) {
    auto stored = devices[id]->GetShared(path);
    ASSERT_TRUE(stored.ok()) << path << " on device " << id;
    EXPECT_TRUE((*stored)->data == payload) << "device " << id;
  }
}

TEST_F(SwiftClusterTest, EtagFollowsContentOnEveryReplica) {
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  // Two full integrity chunks and a partial one.
  std::string content(2 * kIntegrityChunkSize + 100, '\0');
  for (size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<char>('a' + (i * 7919) % 26);
  }
  std::string changed = content;
  changed[kIntegrityChunkSize + 7] ^= 0x01;
  ASSERT_TRUE(client_->PutObject("data", "a", content).ok());
  ASSERT_TRUE(client_->PutObject("data", "b", content).ok());
  ASSERT_TRUE(client_->PutObject("data", "c", changed).ok());
  ASSERT_TRUE(client_->PutObject("data", "empty", "").ok());
  auto devices = cluster_->DevicesById();
  auto replica_etags = [&](const std::string& object) {
    const std::string path = "/acct/data/" + object;
    std::set<std::string> etags;
    for (int id : cluster_->ring().GetNodes(path)) {
      auto stored = devices[id]->GetShared(path);
      EXPECT_TRUE(stored.ok()) << path << " on device " << id;
      if (stored.ok()) etags.insert((*stored)->etag);
    }
    return etags;
  };
  const std::set<std::string> a = replica_etags("a");
  ASSERT_EQ(a.size(), 1u) << "replicas disagree on the ETag";
  EXPECT_EQ(*a.begin(),
            ObjectServer::ComputeEtag(ComputeChunkHashes(content)));
  EXPECT_EQ(a.begin()->size(), 16u);
  EXPECT_EQ(replica_etags("b"), a);
  const std::set<std::string> c = replica_etags("c");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_NE(*c.begin(), *a.begin());
  // No chunks: the ETag is Xxh64 of the empty string.
  EXPECT_EQ(replica_etags("empty"), std::set<std::string>{"ef46db3751d8e999"});
}

TEST_F(SwiftClusterTest, ReadsSurviveSingleDeviceFailure) {
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  ASSERT_TRUE(client_->PutObject("data", "obj", "resilient").ok());
  const std::vector<int>& replicas = cluster_->ring().GetNodes("/acct/data/obj");
  cluster_->DevicesById()[replicas[0]]->Fail();
  auto body = client_->GetObject("data", "obj");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "resilient");
}

TEST_F(SwiftClusterTest, ReplicatorRepairsWipedDevice) {
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client_->PutObject("data", "obj" + std::to_string(i),
                                   std::string(100, 'x'))
                    .ok());
  }
  auto devices = cluster_->DevicesById();
  // Simulate a disk replacement: contents lost, device back empty.
  devices[0]->Wipe();
  auto report = cluster_->RunReplication();
  EXPECT_GT(report.objects_scanned, 0);
  // After repair every object has all replicas in place again.
  for (int i = 0; i < 20; ++i) {
    std::string path = "/acct/data/obj" + std::to_string(i);
    for (int id : cluster_->ring().GetNodes(path)) {
      EXPECT_TRUE(devices[id]->Exists(path)) << path << " on device " << id;
    }
  }
  // A second pass is a no-op.
  auto second = cluster_->RunReplication();
  EXPECT_EQ(second.replicas_repaired, 0);
}

TEST_F(SwiftClusterTest, DeleteContainerRequiresEmpty) {
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  ASSERT_TRUE(client_->PutObject("data", "obj", "x").ok());
  HttpResponse response = client_->Send(Request::Delete("/acct/data"));
  EXPECT_EQ(response.status, 409);
  ASSERT_TRUE(client_->DeleteObject("data", "obj").ok());
  response = client_->Send(Request::Delete("/acct/data"));
  EXPECT_EQ(response.status, 204);
}

TEST_F(SwiftClusterTest, MetricsTrackTraffic) {
  ASSERT_TRUE(client_->CreateContainer("data").ok());
  ASSERT_TRUE(client_->PutObject("data", "obj", std::string(1000, 'y')).ok());
  ASSERT_TRUE(client_->GetObject("data", "obj").ok());
  int64_t lb_out = cluster_->metrics().GetCounter("lb.bytes_out")->value();
  EXPECT_GE(lb_out, 1000);
}

}  // namespace
}  // namespace scoop
