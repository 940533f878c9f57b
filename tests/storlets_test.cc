#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "csv/csv_storlet.h"
#include "objectstore/cluster.h"
#include "scoop/scoop.h"
#include "storlets/engine.h"
#include "storlets/headers.h"
#include "storlets/policy.h"
#include "storlets/registry.h"
#include "storlets/sandbox.h"

namespace scoop {
namespace {

// A storlet that uppercases its input; used to exercise the framework
// without CSV semantics.
class UpperStorlet : public Storlet {
 public:
  std::string name() const override { return "upper"; }
  Status Invoke(StorletInputStream& input, StorletOutputStream& output,
                const StorletParams& /*params*/,
                StorletLogger& logger) override {
    char buf[256];
    size_t n;
    while ((n = input.Read(buf, sizeof buf)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        buf[i] = static_cast<char>(std::toupper(
            static_cast<unsigned char>(buf[i])));
      }
      output.Write(std::string_view(buf, n));
    }
    logger.Emit("upper done");
    return Status::OK();
  }
};

// A storlet that keeps only lines containing the "needle" parameter.
class GrepStorlet : public Storlet {
 public:
  std::string name() const override { return "grep"; }
  Status Invoke(StorletInputStream& input, StorletOutputStream& output,
                const StorletParams& params,
                StorletLogger& /*logger*/) override {
    auto it = params.find("needle");
    if (it == params.end()) {
      return Status::InvalidArgument("grep requires 'needle'");
    }
    while (auto line = input.ReadLine()) {
      if (line->find(it->second) != std::string_view::npos) {
        output.WriteLine(*line);
      }
    }
    return Status::OK();
  }
};

TEST(StorletStreamsTest, ReadAndReadLine) {
  StringByteStream lines("ab\ncd\nef");
  StorletInputStream in(&lines);
  EXPECT_EQ(*in.ReadLine(), "ab");
  EXPECT_EQ(*in.ReadLine(), "cd");
  EXPECT_EQ(*in.ReadLine(), "ef");  // unterminated final line
  EXPECT_FALSE(in.ReadLine().has_value());

  StringByteStream hello("hello");
  StorletInputStream in2(&hello);
  char buf[3];
  EXPECT_EQ(in2.Read(buf, 3), 3u);
  EXPECT_EQ(std::string_view(buf, 3), "hel");
  EXPECT_EQ(in2.Read(buf, 3), 2u);
  EXPECT_TRUE(in2.AtEof());
}

TEST(RegistryTest, DeployLifecycle) {
  StorletRegistry registry;
  ASSERT_TRUE(registry
                  .RegisterFactory("upper",
                                   [] { return std::make_unique<UpperStorlet>(); })
                  .ok());
  // Duplicate registration refused.
  EXPECT_TRUE(registry
                  .RegisterFactory("upper",
                                   [] { return std::make_unique<UpperStorlet>(); })
                  .code() == StatusCode::kAlreadyExists);
  // Not deployed yet.
  EXPECT_FALSE(registry.IsDeployed("upper"));
  EXPECT_TRUE(registry.Create("upper").status().IsNotFound());
  // Deploy requires a factory.
  EXPECT_TRUE(registry.Deploy("ghost").IsNotFound());
  ASSERT_TRUE(registry.Deploy("upper").ok());
  EXPECT_TRUE(registry.IsDeployed("upper"));
  ASSERT_TRUE(registry.Create("upper").ok());
  ASSERT_TRUE(registry.Undeploy("upper").ok());
  EXPECT_FALSE(registry.IsDeployed("upper"));
}

TEST(PolicyTest, ResolutionPrecedence) {
  PolicyStore store;
  StorletPolicy account_policy;
  account_policy.stage = ExecutionStage::kProxy;
  store.SetAccountPolicy("acct", account_policy);
  StorletPolicy container_policy;
  container_policy.pushdown_enabled = false;
  store.SetContainerPolicy("acct", "cold", container_policy);

  EXPECT_EQ(store.Resolve("acct", "hot").stage, ExecutionStage::kProxy);
  EXPECT_FALSE(store.Resolve("acct", "cold").pushdown_enabled);
  EXPECT_EQ(store.Resolve("other", "x").stage, ExecutionStage::kObjectNode);

  store.ClearContainerPolicy("acct", "cold");
  EXPECT_TRUE(store.Resolve("acct", "cold").pushdown_enabled);
}

TEST(PolicyTest, AllowList) {
  StorletPolicy policy;
  EXPECT_TRUE(PolicyStore::Allows(policy, "anything"));
  policy.allowed_storlets = {"csvstorlet"};
  EXPECT_TRUE(PolicyStore::Allows(policy, "csvstorlet"));
  EXPECT_FALSE(PolicyStore::Allows(policy, "upper"));
  policy.pushdown_enabled = false;
  EXPECT_FALSE(PolicyStore::Allows(policy, "csvstorlet"));
}

// Runs `storlet` in `sandbox` from a string stream into `output`.
Result<SandboxResult> ExecuteOver(const Sandbox& sandbox, Storlet& storlet,
                                  std::string input, std::string* output) {
  StringByteStream source(std::move(input));
  StorletInputStream in(&source);
  StringByteSink sink(output);
  StorletOutputStream out(&sink);
  return sandbox.Execute(storlet, in, out, {});
}

TEST(SandboxTest, MetersUsage) {
  MetricRegistry metrics;
  Sandbox sandbox(SandboxLimits{}, &metrics);
  UpperStorlet storlet;
  std::string output;
  auto result = ExecuteOver(sandbox, storlet, "abc", &output);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(output, "ABC");
  EXPECT_EQ(result->usage.bytes_in, 3u);
  EXPECT_EQ(result->usage.bytes_out, 3u);
  EXPECT_EQ(metrics.GetCounter("storlet.invocations")->value(), 1);
  EXPECT_EQ(metrics.GetCounter("storlet.bytes_in")->value(), 3);
  ASSERT_EQ(result->log_lines.size(), 1u);
}

TEST(SandboxTest, EnforcesOutputCap) {
  MetricRegistry metrics;
  SandboxLimits limits;
  limits.max_output_bytes = 2;
  Sandbox sandbox(limits, &metrics);
  UpperStorlet storlet;
  std::string output;
  auto result = ExecuteOver(sandbox, storlet, "abcdef", &output);
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_EQ(metrics.GetCounter("storlet.failures")->value(), 1);
}

TEST(EngineTest, ParseInvocationsSingle) {
  Headers headers;
  headers.Set(kRunStorletHeader, "csvstorlet");
  headers.Set("X-Storlet-Parameter-Projection", "a,b");
  headers.Set("X-Storlet-Parameter-Selection", "(true)");
  auto invocations = StorletEngine::ParseInvocations(headers);
  ASSERT_TRUE(invocations.ok());
  ASSERT_EQ(invocations->size(), 1u);
  EXPECT_EQ((*invocations)[0].name, "csvstorlet");
  EXPECT_EQ((*invocations)[0].params.at("projection"), "a,b");
  EXPECT_EQ((*invocations)[0].params.at("selection"), "(true)");
}

TEST(EngineTest, ParseInvocationsPipeline) {
  Headers headers;
  headers.Set(kRunStorletHeader, "grep, upper");
  headers.Set("X-Storlet-0-Parameter-Needle", "x");
  auto invocations = StorletEngine::ParseInvocations(headers);
  ASSERT_TRUE(invocations.ok());
  ASSERT_EQ(invocations->size(), 2u);
  EXPECT_EQ((*invocations)[0].name, "grep");
  EXPECT_EQ((*invocations)[0].params.at("needle"), "x");
  EXPECT_TRUE((*invocations)[1].params.empty());
}

TEST(EngineTest, ParseInvocationsErrors) {
  Headers empty;
  auto none = StorletEngine::ParseInvocations(empty);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  Headers bad_index;
  bad_index.Set(kRunStorletHeader, "grep");
  bad_index.Set("X-Storlet-5-Parameter-Needle", "x");
  EXPECT_FALSE(StorletEngine::ParseInvocations(bad_index).ok());

  Headers empty_name;
  empty_name.Set(kRunStorletHeader, "grep,,upper");
  EXPECT_FALSE(StorletEngine::ParseInvocations(empty_name).ok());
}

class StorletClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SwiftConfig config;
    config.num_proxies = 1;
    config.num_storage_nodes = 3;
    config.disks_per_node = 2;
    config.part_power = 5;
    auto cluster = ScoopCluster::Create(config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    ASSERT_TRUE(cluster_->engine()
                    .registry()
                    .RegisterFactory("upper",
                                     [] { return std::make_unique<UpperStorlet>(); })
                    .ok());
    ASSERT_TRUE(cluster_->engine().registry().Deploy("upper").ok());
    ASSERT_TRUE(cluster_->engine()
                    .registry()
                    .RegisterFactory("grep",
                                     [] { return std::make_unique<GrepStorlet>(); })
                    .ok());
    ASSERT_TRUE(cluster_->engine().registry().Deploy("grep").ok());
    auto client = cluster_->Connect("tenant", "key", "acct");
    ASSERT_TRUE(client.ok());
    client_ = std::make_unique<SwiftClient>(std::move(client).value());
    ASSERT_TRUE(client_->CreateContainer("data").ok());
  }

  HttpResponse GetWithStorlet(const std::string& object,
                              const std::string& storlets,
                              Headers extra = Headers()) {
    Request request = Request::Get("/acct/data/" + object);
    request.headers.Set(kRunStorletHeader, storlets);
    for (const auto& [name, value] : extra) request.headers.Set(name, value);
    return client_->Send(std::move(request));
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<SwiftClient> client_;
};

TEST_F(StorletClusterTest, GetRunsFilterAtObjectNode) {
  ASSERT_TRUE(client_->PutObject("data", "obj", "hello\nworld\n").ok());
  HttpResponse response = GetWithStorlet("obj", "upper");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.body(), "HELLO\nWORLD\n");
  EXPECT_EQ(response.headers.GetOr(kStorletExecutedHeader, ""),
            "upper@object");
  // The stored object is unaltered.
  auto raw = client_->GetObject("data", "obj");
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(*raw, "hello\nworld\n");
}

TEST_F(StorletClusterTest, PipelineChainsFilters) {
  ASSERT_TRUE(client_->PutObject("data", "obj", "ax\nby\naz\n").ok());
  Headers extra;
  extra.Set("X-Storlet-0-Parameter-Needle", "a");
  HttpResponse response = GetWithStorlet("obj", "grep,upper", extra);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.body(), "AX\nAZ\n");
  EXPECT_EQ(response.headers.GetOr(kStorletExecutedHeader, ""),
            "grep,upper@object");
}

TEST_F(StorletClusterTest, StageOverrideToProxy) {
  ASSERT_TRUE(client_->PutObject("data", "obj", "abc\n").ok());
  Headers extra;
  extra.Set(kStorletRunOnHeader, "proxy");
  HttpResponse response = GetWithStorlet("obj", "upper", extra);
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.body(), "ABC\n");
  EXPECT_EQ(response.headers.GetOr(kStorletExecutedHeader, ""),
            "upper@proxy");
}

TEST_F(StorletClusterTest, PolicyDisabledServesRawData) {
  StorletPolicy off;
  off.pushdown_enabled = false;
  cluster_->policies().SetContainerPolicy("acct", "data", off);
  ASSERT_TRUE(client_->PutObject("data", "obj", "abc\n").ok());
  HttpResponse response = GetWithStorlet("obj", "upper");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.body(), "abc\n");
  EXPECT_FALSE(response.headers.Has(kStorletExecutedHeader));
}

TEST_F(StorletClusterTest, PolicyAllowListBlocksOtherStorlets) {
  StorletPolicy only_grep;
  only_grep.allowed_storlets = {"grep"};
  cluster_->policies().SetContainerPolicy("acct", "data", only_grep);
  ASSERT_TRUE(client_->PutObject("data", "obj", "abc\n").ok());
  HttpResponse response = GetWithStorlet("obj", "upper");
  ASSERT_EQ(response.status, 200);
  EXPECT_EQ(response.body(), "abc\n");  // raw fallback
  EXPECT_FALSE(response.headers.Has(kStorletExecutedHeader));
}

TEST_F(StorletClusterTest, UndeployedStorletFails) {
  ASSERT_TRUE(client_->PutObject("data", "obj", "abc\n").ok());
  HttpResponse response = GetWithStorlet("obj", "ghost");
  EXPECT_EQ(response.status, 500);
}

TEST_F(StorletClusterTest, PutPathTransformsBeforeStorage) {
  Request request = Request::Put("/acct/data/up", "abc\ndef\n");
  request.headers.Set(kRunStorletHeader, "upper");
  HttpResponse response = client_->Send(std::move(request));
  ASSERT_EQ(response.status, 201);
  EXPECT_EQ(response.headers.GetOr(kStorletExecutedHeader, ""), "put@proxy");
  auto body = client_->GetObject("data", "up");
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, "ABC\nDEF\n");
  // All replicas hold the transformed bytes.
  auto devices = cluster_->swift().DevicesById();
  for (int id : cluster_->swift().ring().GetNodes("/acct/data/up")) {
    auto stored = devices[id]->GetShared("/acct/data/up");
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ((*stored)->data, "ABC\nDEF\n");
  }
}

TEST_F(StorletClusterTest, PutRefusedByPolicyIsNotStored) {
  // An upload's transform has no raw fallback: whether the scope disables
  // pushdown or its allow-list leaves the storlet out, the PUT is refused
  // and nothing is stored.
  StorletPolicy off;
  off.pushdown_enabled = false;
  StorletPolicy only_grep;
  only_grep.allowed_storlets = {"grep"};
  for (const StorletPolicy& policy : {off, only_grep}) {
    cluster_->policies().SetContainerPolicy("acct", "data", policy);
    Request request = Request::Put("/acct/data/up", "abc\ndef\n");
    request.headers.Set(kRunStorletHeader, "upper");
    HttpResponse response = client_->Send(std::move(request));
    EXPECT_EQ(response.status, 403) << response.body();
    EXPECT_FALSE(response.headers.Has(kStorletExecutedHeader));
    EXPECT_TRUE(client_->GetObject("data", "up").status().IsNotFound());
  }
}

TEST_F(StorletClusterTest, PutStageCrashStoresNothing) {
  // An upload's storlet output streams, so a stage can die after some of
  // it was drained. The upload must still fail as a whole.
  cluster_->engine().set_chunk_size(64);
  std::string body;
  while (body.size() < 2048) body += "abcdefghijklmnop\n";
  FailpointSpec crash;
  crash.skip = 3;  // `upper` writes 256 B at a time: crash on the 4th
  ASSERT_TRUE(Failpoints::Global().Arm("engine.stage_crash", crash).ok());
  Request request = Request::Put("/acct/data/crash", body);
  request.headers.Set(kRunStorletHeader, "upper");
  HttpResponse response = client_->Send(std::move(request));
  const int64_t fires = Failpoints::Global().fires("engine.stage_crash");
  Failpoints::Global().DisarmAll();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(response.status, 500) << response.body();
  EXPECT_FALSE(response.headers.Has(kStorletExecutedHeader));
  EXPECT_TRUE(client_->GetObject("data", "crash").status().IsNotFound());
  EXPECT_EQ(cluster_->metrics().GetGauge("storlet.buffered_bytes")->value(),
            0);
}

// Byte-range record alignment (the §V-A extension): any partitioning of an
// object into ranges must yield exactly the full set of records, each once.
class RangeAlignmentTest : public StorletClusterTest,
                           public ::testing::WithParamInterface<int> {};

TEST_F(StorletClusterTest, RangedGetAlignsRecords) {
  // Records: "aaaa","bbbb","cccc" at offsets 0,5,10.
  ASSERT_TRUE(client_->PutObject("data", "obj", "aaaa\nbbbb\ncccc\n").ok());
  Headers extra;
  extra.Set(kStorletRangeRecordsHeader, "true");
  extra.Set(kRangeHeader, "bytes=5-9");  // exactly record 2
  HttpResponse response = GetWithStorlet("obj", "upper", extra);
  ASSERT_EQ(response.status, 206);
  EXPECT_EQ(response.body(), "BBBB\n");

  // A range starting mid-record owns only the record that starts in it.
  Headers mid;
  mid.Set(kStorletRangeRecordsHeader, "true");
  mid.Set(kRangeHeader, "bytes=6-11");
  response = GetWithStorlet("obj", "upper", mid);
  ASSERT_EQ(response.status, 206);
  EXPECT_EQ(response.body(), "CCCC\n");

  // A range fully inside one record owns nothing.
  Headers inside;
  inside.Set(kStorletRangeRecordsHeader, "true");
  inside.Set(kRangeHeader, "bytes=6-8");
  response = GetWithStorlet("obj", "upper", inside);
  ASSERT_EQ(response.status, 206);
  EXPECT_EQ(response.body(), "");

  // The open form aligns like the closed one.
  Headers open;
  open.Set(kStorletRangeRecordsHeader, "true");
  open.Set(kRangeHeader, "bytes=6-");
  response = GetWithStorlet("obj", "upper", open);
  ASSERT_EQ(response.status, 206);
  EXPECT_EQ(response.body(), "CCCC\n");

  // A suffix range cannot be aligned: its start is unknown until the
  // object size is.
  Headers suffix;
  suffix.Set(kStorletRangeRecordsHeader, "true");
  suffix.Set(kRangeHeader, "bytes=-4");
  response = GetWithStorlet("obj", "upper", suffix);
  EXPECT_EQ(response.status, 400);

  // A record longer than the largest extension read, at [5, 70005], read
  // through ranges that start before, inside and after it.
  const std::string big(70000, 'x');
  const std::string data = "aaaa\n" + big + "\ncccc\n";
  ASSERT_TRUE(client_->PutObject("data", "long", data).ok());
  const std::string big_upper(70000, 'X');
  const std::pair<const char*, std::string> cases[] = {
      {"bytes=0-9", "AAAA\n" + big_upper + "\n"},
      {"bytes=5-9", big_upper + "\n"},
      {"bytes=100-200", ""},
      {"bytes=100-", "CCCC\n"},
      {"bytes=70006-70010", "CCCC\n"},
  };
  for (const auto& [range, want] : cases) {
    Headers aligned;
    aligned.Set(kStorletRangeRecordsHeader, "true");
    aligned.Set(kRangeHeader, range);
    response = GetWithStorlet("long", "upper", aligned);
    ASSERT_EQ(response.status, 206) << range;
    EXPECT_EQ(response.body(), want) << range;
  }
}

TEST_F(StorletClusterTest, AlignmentExtensionFaultNeverClipsTheRecord) {
  ASSERT_TRUE(client_->PutObject("data", "obj", "aaaa\nbbbb\ncccc\n").ok());
  // The range [0, 7] ends inside "bbbb": completing it takes one extension
  // read. Let the range's own chunk read pass, then drop the extension's
  // mid-stream.
  FailpointSpec drop;
  drop.action = FailpointSpec::Action::kDrop;
  drop.skip = 1;
  drop.max_fires = 1;
  ASSERT_TRUE(Failpoints::Global().Arm("object.read.chunk", drop).ok());
  Headers aligned;
  aligned.Set(kStorletRangeRecordsHeader, "true");
  aligned.Set(kRangeHeader, "bytes=0-7");
  HttpResponse response = GetWithStorlet("obj", "upper", aligned);
  std::string body = response.body();
  EXPECT_EQ(Failpoints::Global().fires("object.read.chunk"), 1);
  Failpoints::Global().DisarmAll();
  // The failed extension fails the GET (the connector's fallback ladder
  // takes over from there) instead of serving "BBB" plus the error text
  // as the trailing record.
  EXPECT_EQ(response.status, 500) << body;
  EXPECT_NE(body.find("extension read failed"), std::string::npos) << body;
}

TEST_P(RangeAlignmentTest, PartitionUnionEqualsWholeObject) {
  // Build an object with variable-length records.
  std::string data;
  std::vector<std::string> records;
  for (int i = 0; i < 40; ++i) {
    std::string record = "rec" + std::to_string(i) +
                         std::string(static_cast<size_t>(i * 7 % 13), 'x');
    records.push_back(record);
    data += record + "\n";
  }
  ASSERT_TRUE(client_->PutObject("data", "big", data).ok());

  int chunk = GetParam();
  std::string reassembled;
  for (size_t offset = 0; offset < data.size();
       offset += static_cast<size_t>(chunk)) {
    size_t last = std::min(offset + static_cast<size_t>(chunk), data.size()) - 1;
    Headers extra;
    extra.Set(kStorletRangeRecordsHeader, "true");
    extra.Set(kRangeHeader, "bytes=" + std::to_string(offset) + "-" +
                                std::to_string(last));
    HttpResponse response = GetWithStorlet("big", "upper", extra);
    ASSERT_TRUE(response.ok()) << response.status << " " << response.body();
    reassembled += response.body();
  }
  std::string expected;
  for (const std::string& record : records) {
    std::string upper = record;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    expected += upper + "\n";
  }
  EXPECT_EQ(reassembled, expected) << "chunk=" << chunk;
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, RangeAlignmentTest,
                         ::testing::Values(1, 3, 7, 16, 64, 256, 1024));

}  // namespace
}  // namespace scoop
