// Tests of the chunked streaming data path: the ByteStream backings, the
// bounded inter-stage queue, the stream-backed storlet streams, the lazy
// HttpResponse body, and byte-identical pipeline output across chunk
// sizes.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytestream.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "objectstore/cluster.h"
#include "scoop/scoop.h"
#include "storlets/engine.h"
#include "storlets/headers.h"
#include "storlets/storlet.h"

namespace scoop {
namespace {

TEST(GaugeTest, TracksValueAndPeak) {
  Gauge gauge;
  gauge.Add(10);
  gauge.Add(15);
  gauge.Add(-20);
  EXPECT_EQ(gauge.value(), 5);
  EXPECT_EQ(gauge.peak(), 25);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.peak(), 0);
}

TEST(ByteStreamTest, StringStreamChunksReads) {
  StringByteStream stream("abcdefgh", 3);
  char buf[64];
  auto n = stream.Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);  // capped at chunk_size even with a larger buffer
  EXPECT_EQ(std::string_view(buf, 3), "abc");
  ASSERT_TRUE(stream.Read(buf, sizeof buf).ok());
  auto rest = stream.ReadAll();
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(*rest, "gh");
  EXPECT_EQ(*stream.Read(buf, sizeof buf), 0u);  // EOF is sticky
}

TEST(ByteStreamTest, SharedBufferKeepsOwnerAlive) {
  auto owner = std::make_shared<std::string>("0123456789");
  auto stream = std::make_shared<SharedBufferByteStream>(
      owner, std::string_view(*owner).substr(2, 5), 2);
  owner.reset();  // the stream's reference must keep the buffer valid
  auto all = stream->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, "23456");
}

TEST(ByteStreamTest, PrefixedThenRest) {
  auto rest = std::make_shared<StringByteStream>("world");
  PrefixedByteStream stream("hello ", rest);
  auto all = stream.ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, "hello world");
}

TEST(ByteStreamTest, CountingCountsBytes) {
  Counter counter;
  CountingByteStream stream(std::make_shared<StringByteStream>("abcdef", 4),
                            &counter);
  ASSERT_TRUE(stream.ReadAll().ok());
  EXPECT_EQ(counter.value(), 6);
}

TEST(ByteStreamTest, EofCallbackFiresOnce) {
  int fired = 0;
  EofCallbackByteStream stream(std::make_shared<StringByteStream>("ab"),
                               [&] { ++fired; });
  char buf[8];
  ASSERT_TRUE(stream.Read(buf, sizeof buf).ok());
  EXPECT_EQ(fired, 0);
  ASSERT_TRUE(stream.Read(buf, sizeof buf).ok());  // EOF
  ASSERT_TRUE(stream.Read(buf, sizeof buf).ok());  // still EOF
  EXPECT_EQ(fired, 1);
}

// An object behind a fake fetch: RecordAlignedStream's extension reads are
// served from `object` and logged; `error` (when set) fails every fetch.
struct FakeObject {
  explicit FakeObject(std::string data) : object(std::move(data)) {}

  std::string object;
  std::vector<std::pair<uint64_t, uint64_t>> fetches;
  Status error = Status::OK();

  // Aligns the split [first, last], delivering the body in `chunk`-byte
  // reads the way a ranged GET from first-1 would.
  Result<std::string> ReadSplit(uint64_t first, uint64_t last,
                                size_t chunk = kDefaultStreamChunk) {
    uint64_t start = first > 0 ? first - 1 : 0;
    auto body = std::make_shared<StringByteStream>(
        object.substr(start, last + 1 - start), chunk);
    auto fetch = [this](uint64_t from, uint64_t to) -> Result<std::string> {
      fetches.emplace_back(from, to);
      if (!error.ok()) return error;
      return object.substr(from, to + 1 - from);
    };
    RecordAlignedStream stream(body, first > 0, last + 1, object.size(), fetch);
    return stream.ReadAll();
  }

  std::vector<uint64_t> FetchSizes() const {
    std::vector<uint64_t> sizes;
    for (const auto& [from, to] : fetches) sizes.push_back(to + 1 - from);
    return sizes;
  }
};

TEST(RecordAlignedStreamTest, SkipSpansSeveralBodyChunks) {
  FakeObject fake{"aaaa\n" + std::string(40, 'b') + "\ncc\ndd\n"};
  auto read = fake.ReadSplit(6, fake.object.size() - 1, /*chunk=*/8);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "cc\ndd\n");
  EXPECT_TRUE(fake.fetches.empty());  // the split ends at the object's end
}

TEST(RecordAlignedStreamTest, SplitInsideOneRecordYieldsNothing) {
  // The long record spans [5, 305]; the split [10, 20] lies inside it.
  FakeObject fake{"aaaa\n" + std::string(300, 'b') + "\ncc\n"};
  auto read = fake.ReadSplit(10, 20, /*chunk=*/4);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "");
  // The skip ran on into the extension until the record's '\n'.
  ASSERT_EQ(fake.fetches.size(), 2u);
  EXPECT_EQ(fake.fetches[0], std::make_pair(uint64_t{21}, uint64_t{276}));
  EXPECT_EQ(fake.fetches[1].second, fake.object.size() - 1);  // clipped
}

TEST(RecordAlignedStreamTest, TrailingRecordFetchesDoubleUpToTheCap) {
  std::string rest;
  for (int i = 0; i < 40000; ++i) rest += "z\n";
  FakeObject fake{"a\n" + std::string(3000, 'x') + "\n" + rest};
  auto read = fake.ReadSplit(0, 9);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "a\n" + std::string(3000, 'x') + "\n");
  EXPECT_EQ(fake.FetchSizes(), (std::vector<uint64_t>{256, 512, 1024, 2048}));

  // A record longer than the cap: the fetch size stops doubling there.
  FakeObject huge{"a\n" + std::string(150 * 1024, 'x') + "\n" + rest};
  read = huge.ReadSplit(0, 9);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "a\n" + std::string(150 * 1024, 'x') + "\n");
  std::vector<uint64_t> sizes = huge.FetchSizes();
  ASSERT_EQ(sizes.size(), 10u);
  EXPECT_EQ(sizes[0], RecordAlignedStream::kFirstExtension);
  EXPECT_EQ(sizes[8], RecordAlignedStream::kMaxExtension);
  EXPECT_EQ(sizes[9], RecordAlignedStream::kMaxExtension);
}

TEST(RecordAlignedStreamTest, ObjectWithoutFinalNewline) {
  FakeObject fake{"aa\nbbbb"};
  auto read = fake.ReadSplit(0, 3);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "aa\nbbbb");  // extended to the object's end
  EXPECT_EQ(fake.fetches, (std::vector<std::pair<uint64_t, uint64_t>>{{4, 6}}));
  read = fake.ReadSplit(4, 6);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "");  // "bbbb" began in the previous split
}

TEST(RecordAlignedStreamTest, FetchErrorFailsTheRead) {
  FakeObject fake{"aa\nbbbb\ncc\n"};
  fake.error = Status::Internal("extension read failed");
  auto read = fake.ReadSplit(0, 4);
  // The trailing record "bbbb" is incomplete without the extension: the
  // read fails instead of ending on the clipped "b".
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(fake.fetches.size(), 1u);
}

TEST(BoundedByteQueueTest, DeliversChunksInOrder) {
  BoundedByteQueue queue(16);
  std::thread producer([&] {
    EXPECT_TRUE(queue.Write("hello ").ok());
    EXPECT_TRUE(queue.Write("bounded ").ok());
    EXPECT_TRUE(queue.Write("world").ok());
    queue.CloseWrite(Status::OK());
  });
  BoundedByteQueue::Reader reader(&queue, nullptr);
  auto all = reader.ReadAll();
  producer.join();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, "hello bounded world");
}

TEST(BoundedByteQueueTest, ErrorPropagatesAfterChunks) {
  BoundedByteQueue queue(1024);
  ASSERT_TRUE(queue.Write("partial").ok());
  queue.CloseWrite(Status::IOError("producer died"));
  char buf[64];
  auto n = queue.Read(buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string_view(buf, *n), "partial");
  auto err = queue.Read(buf, sizeof buf);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kIOError);
  queue.CloseRead();
}

TEST(BoundedByteQueueTest, AbandonedReaderUnblocksWriter) {
  BoundedByteQueue queue(4);  // writer must block after the first chunk
  Status writer_status = Status::OK();
  std::thread producer([&] {
    std::string chunk(4, 'x');
    while (writer_status.ok()) writer_status = queue.Write(chunk);
  });
  {
    BoundedByteQueue::Reader reader(&queue, nullptr);
    char buf[4];
    ASSERT_TRUE(reader.Read(buf, sizeof buf).ok());
    // Reader destroyed here: consumer walked away mid-stream.
  }
  producer.join();
  EXPECT_EQ(writer_status.code(), StatusCode::kAborted);
}

TEST(BoundedByteQueueTest, PoisonFailsReaderAndDiscardsBufferedChunks) {
  Gauge gauge;
  BoundedByteQueue queue(1024, &gauge);
  ASSERT_TRUE(queue.Write("stale").ok());
  EXPECT_EQ(gauge.value(), 5);
  queue.Poison(Status::Aborted("producer died"));
  // Poison models a producer that vanished mid-stream: what it buffered
  // cannot be trusted to be a prefix of anything complete, so the reader
  // sees the failure immediately, not stale data first.
  char buf[64];
  auto r = queue.Read(buf, sizeof buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_EQ(gauge.value(), 0) << "discarded chunks must release the gauge";
  // A poisoned queue rejects further writes.
  EXPECT_FALSE(queue.Write("more").ok());
}

TEST(BoundedByteQueueTest, PoisonAfterCleanCloseIsANoOp) {
  BoundedByteQueue queue(1024);
  ASSERT_TRUE(queue.Write("done").ok());
  queue.CloseWrite(Status::OK());
  queue.Poison(Status::Aborted("too late"));  // the guard ran after success
  BoundedByteQueue::Reader reader(&queue, nullptr);
  auto all = reader.ReadAll();
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(*all, "done");
}

TEST(BoundedByteQueueTest, PoisonUnblocksAWaitingReader) {
  BoundedByteQueue queue(16);
  Status seen = Status::OK();
  std::thread consumer([&] {
    char buf[16];
    auto r = queue.Read(buf, sizeof buf);  // blocks: nothing written yet
    seen = r.ok() ? Status::OK() : r.status();
  });
  // Give the consumer time to park on the empty queue, then kill the
  // producer side. The test hangs here if Poison fails to wake readers.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Poison(Status::Aborted("producer died"));
  consumer.join();
  EXPECT_EQ(seen.code(), StatusCode::kAborted);
}

TEST(BoundedByteQueueTest, GaugeReleasedOnDrainAndDestruction) {
  Gauge gauge;
  {
    BoundedByteQueue queue(1024, &gauge);
    ASSERT_TRUE(queue.Write("abcd").ok());
    ASSERT_TRUE(queue.Write("efgh").ok());
    EXPECT_EQ(gauge.value(), 8);
    char buf[64];
    ASSERT_TRUE(queue.Read(buf, sizeof buf).ok());
    EXPECT_EQ(gauge.value(), 4);
    // Queue destroyed with one chunk still buffered.
  }
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(gauge.peak(), 8);
}

TEST(StorletInputStreamTest, StreamModeReadLineAcrossChunks) {
  // Chunk size 1 forces every line to span chunk boundaries.
  StringByteStream backing("ab\ncd\nef", 1);
  StorletInputStream in(&backing);
  EXPECT_EQ(*in.ReadLine(), "ab");
  EXPECT_EQ(*in.ReadLine(), "cd");
  EXPECT_EQ(*in.ReadLine(), "ef");  // unterminated final line
  EXPECT_FALSE(in.ReadLine().has_value());
  EXPECT_EQ(in.bytes_consumed(), 8u);
  EXPECT_TRUE(in.AtEof());
  EXPECT_TRUE(in.status().ok());
}

TEST(StorletInputStreamTest, StreamModeReadAndRemaining) {
  StringByteStream backing("0123456789", 3);
  StorletInputStream in(&backing);
  char buf[4];
  EXPECT_EQ(in.Read(buf, 4), 3u);  // one chunk per pull
  EXPECT_EQ(std::string_view(buf, 3), "012");
  EXPECT_FALSE(in.AtEof());
  // Remaining() is a peek: it stages the rest of the stream but does not
  // consume it.
  EXPECT_EQ(in.Remaining(), "3456789");
  EXPECT_EQ(in.bytes_consumed(), 3u);
  char rest[16];
  EXPECT_EQ(in.Read(rest, sizeof rest), 7u);  // staged bytes serve in full
  EXPECT_TRUE(in.AtEof());
  EXPECT_EQ(in.bytes_consumed(), 10u);
}

TEST(StorletInputStreamTest, UpstreamErrorReadsAsEofWithStatus) {
  int calls = 0;
  CallbackByteStream backing([&]() -> Result<std::string> {
    if (++calls == 1) return std::string("data\n");
    return Status::IOError("upstream broke");
  });
  StorletInputStream in(&backing);
  EXPECT_EQ(*in.ReadLine(), "data");
  EXPECT_FALSE(in.ReadLine().has_value());  // error surfaces as EOF here...
  EXPECT_EQ(in.status().code(), StatusCode::kIOError);  // ...then as status
}

// A sink that records each Write it receives.
class RecordingSink : public ByteSink {
 public:
  Status Write(std::string_view data) override {
    writes_.emplace_back(data);
    return Status::OK();
  }
  const std::vector<std::string>& writes() const { return writes_; }

 private:
  std::vector<std::string> writes_;
};

TEST(StorletOutputStreamTest, SinkModeCoalescesToFlushChunk) {
  RecordingSink sink;
  StorletOutputStream out(&sink, 4);
  for (int i = 0; i < 6; ++i) out.Write("x");
  out.Flush();
  EXPECT_EQ(out.bytes_written(), 6u);
  std::string delivered;
  for (const std::string& w : sink.writes()) delivered += w;
  EXPECT_EQ(delivered, "xxxxxx");
  // Coalescing: far fewer sink writes than Write() calls.
  EXPECT_LE(sink.writes().size(), 2u);
  EXPECT_TRUE(out.sink_status().ok());
}

TEST(HttpResponseTest, MaterializeMergesTrailersAndContentLength) {
  HttpResponse response = HttpResponse::Make(200);
  auto trailers = std::make_shared<Headers>();
  trailers->Set("X-Object-Meta-Rows", "42");
  response.SetBodyStream(std::make_shared<StringByteStream>("payload"),
                         trailers);
  EXPECT_TRUE(response.streamed());
  EXPECT_EQ(response.body(), "payload");
  EXPECT_FALSE(response.streamed());
  EXPECT_EQ(response.headers.GetOr("X-Object-Meta-Rows", ""), "42");
  EXPECT_EQ(response.headers.GetOr("Content-Length", ""), "7");
}

TEST(HttpResponseTest, StreamErrorMaterializesAsInternalError) {
  HttpResponse response = HttpResponse::Make(200);
  response.headers.Set(kStorletExecutedHeader, "upper@object");
  response.SetBodyStream(std::make_shared<CallbackByteStream>(
      []() -> Result<std::string> { return Status::IOError("mid-stream"); }));
  response.Materialize();
  EXPECT_EQ(response.status, 500);
  EXPECT_FALSE(response.headers.Has(kStorletExecutedHeader));
}

TEST(HttpResponseTest, TakeBodyStreamWrapsEagerBody) {
  HttpResponse response = HttpResponse::Make(200, "eager");
  auto stream = response.TakeBodyStream();
  auto all = stream->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, "eager");
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: every chunk size must be byte-identical to a
// whole-object-chunk reference, for plain GETs, ranged GETs, pushdown,
// and record-aligned pushdown.

class UpperStorlet : public Storlet {
 public:
  std::string name() const override { return "upper"; }
  Status Invoke(StorletInputStream& input, StorletOutputStream& output,
                const StorletParams& /*params*/,
                StorletLogger& /*logger*/) override {
    char buf[256];
    size_t n;
    while ((n = input.Read(buf, sizeof buf)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        buf[i] = static_cast<char>(
            std::toupper(static_cast<unsigned char>(buf[i])));
      }
      output.Write(std::string_view(buf, n));
    }
    return Status::OK();
  }
};

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

class StreamingEquivalenceTest : public ::testing::Test {
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
                    .RegisterFactory(
                        "upper", [] { return std::make_unique<UpperStorlet>(); })
                    .ok());
    ASSERT_TRUE(cluster_->engine().registry().Deploy("upper").ok());
    ASSERT_TRUE(cluster_->engine()
                    .registry()
                    .RegisterFactory(
                        "grep", [] { return std::make_unique<GrepStorlet>(); })
                    .ok());
    ASSERT_TRUE(cluster_->engine().registry().Deploy("grep").ok());
    auto client = cluster_->Connect("tenant", "key", "acct");
    ASSERT_TRUE(client.ok());
    client_ = std::make_unique<SwiftClient>(std::move(client).value());
    ASSERT_TRUE(client_->CreateContainer("data").ok());

    for (int i = 0; i < 4000; ++i) {
      payload_ += "line-" + std::to_string(i) +
                  (i % 3 == 0 ? ",keep\n" : ",drop\n");
    }
    ASSERT_TRUE(client_->PutObject("data", "obj", payload_).ok());
  }

  // Failpoint hygiene: a failed assert must not leave faults armed for
  // the next test.
  void TearDown() override { Failpoints::Global().DisarmAll(); }

  void SetChunkSize(size_t chunk) {
    for (auto& server : cluster_->swift().object_servers()) {
      server->set_chunk_size(chunk);
    }
    cluster_->engine().set_chunk_size(chunk);
  }

  HttpResponse PushdownGet(const Headers& extra) {
    Request request = Request::Get("/acct/data/obj");
    for (const auto& [name, value] : extra) request.headers.Set(name, value);
    return client_->Send(std::move(request));
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<SwiftClient> client_;
  std::string payload_;
};

TEST_F(StreamingEquivalenceTest, ByteIdenticalAcrossChunkSizes) {
  const size_t kChunkSizes[] = {1, 7, 4096, 1 << 20 /* > object size */};

  // Reference results computed with whole-object chunks.
  SetChunkSize(1 << 20);
  auto raw_ref = client_->GetObject("data", "obj");
  ASSERT_TRUE(raw_ref.ok());
  ASSERT_EQ(*raw_ref, payload_);

  Headers pushdown;
  pushdown.Set(kRunStorletHeader, "grep,upper");
  pushdown.Set("X-Storlet-0-Parameter-Needle", "keep");
  HttpResponse ref_response = PushdownGet(pushdown);
  ASSERT_EQ(ref_response.status, 200);
  std::string pushdown_ref = ref_response.body();
  ASSERT_FALSE(pushdown_ref.empty());

  Headers aligned = pushdown;
  aligned.Set(kStorletRangeRecordsHeader, "true");
  aligned.Set("Range", "bytes=100-1000");
  HttpResponse aligned_ref_response = PushdownGet(aligned);
  ASSERT_EQ(aligned_ref_response.status, 206);
  std::string aligned_ref = aligned_ref_response.body();
  ASSERT_FALSE(aligned_ref.empty());

  for (size_t chunk : kChunkSizes) {
    SetChunkSize(chunk);

    auto raw = client_->GetObject("data", "obj");
    ASSERT_TRUE(raw.ok()) << "chunk=" << chunk;
    EXPECT_EQ(*raw, *raw_ref) << "chunk=" << chunk;

    auto range = client_->GetObjectRange("data", "obj", 10, 99);
    ASSERT_TRUE(range.ok()) << "chunk=" << chunk;
    EXPECT_EQ(*range, payload_.substr(10, 90)) << "chunk=" << chunk;

    HttpResponse filtered = PushdownGet(pushdown);
    ASSERT_EQ(filtered.status, 200) << "chunk=" << chunk;
    EXPECT_EQ(filtered.body(), pushdown_ref) << "chunk=" << chunk;
    EXPECT_EQ(filtered.headers.GetOr(kStorletExecutedHeader, ""),
              "grep,upper@object");

    HttpResponse aligned_run = PushdownGet(aligned);
    ASSERT_EQ(aligned_run.status, 206) << "chunk=" << chunk;
    EXPECT_EQ(aligned_run.body(), aligned_ref) << "chunk=" << chunk;
  }
}

TEST_F(StreamingEquivalenceTest, PeakBufferingIsChunkBound) {
  // A two-stage pipeline over the whole object with small chunks: the
  // inter-stage queues may only ever hold a few chunks, no matter the
  // object size.
  const size_t kChunk = 4096;
  SetChunkSize(kChunk);
  cluster_->metrics().ResetAll();

  Headers pushdown;
  pushdown.Set(kRunStorletHeader, "grep,upper");
  pushdown.Set("X-Storlet-0-Parameter-Needle", "keep");
  HttpResponse response = PushdownGet(pushdown);
  ASSERT_EQ(response.status, 200);
  ASSERT_FALSE(response.body().empty());

  Gauge* gauge = cluster_->metrics().GetGauge("storlet.buffered_bytes");
  EXPECT_GT(gauge->peak(), 0);
  // 2 queues x (2-chunk bound + 1 in-flight admission), far below the
  // object size.
  EXPECT_LE(gauge->peak(), static_cast<int64_t>(2 * 3 * kChunk));
  EXPECT_LT(gauge->peak(), static_cast<int64_t>(payload_.size()));
  EXPECT_EQ(gauge->value(), 0) << "buffered bytes must drain to zero";
  // Chunks actually flowed through both stages.
  EXPECT_GT(cluster_->metrics().GetCounter("storlet.stage0.chunks")->value(),
            1);
  EXPECT_GT(cluster_->metrics().GetCounter("storlet.stage1.chunks")->value(),
            1);

  // RunPipeline (the upload path) drains the same pipeline over an
  // in-memory input, under the same bound, to the same bytes.
  cluster_->metrics().ResetAll();
  std::vector<StorletInvocation> invocations = {
      {"grep", {{"needle", "keep"}}}, {"upper", {}}};
  auto drained =
      cluster_->engine().RunPipeline("acct", "data", invocations, payload_);
  ASSERT_TRUE(drained.ok()) << drained.status();
  EXPECT_EQ(drained->output, response.body());
  EXPECT_GT(gauge->peak(), 0);
  EXPECT_LE(gauge->peak(), static_cast<int64_t>(2 * 3 * kChunk));
  EXPECT_EQ(gauge->value(), 0);
}

TEST_F(StreamingEquivalenceTest, CrashedStagePoisonsQueueInsteadOfHanging) {
  // A storlet stage that dies mid-stream exits without closing its queue.
  // The poison guard must convert that into a stream error the consumer
  // observes promptly — this test hangs (and times out) if it doesn't.
  SetChunkSize(64);
  FailpointSpec spec;
  // The queues hold ~2 chunks of slack per stage, so the middleware's
  // first-chunk prefetch can observe at most a handful of stage writes;
  // skipping well past that guarantees the crash lands mid-body (after
  // the 200 is committed), not before the first byte.
  spec.skip = 20;
  ASSERT_TRUE(Failpoints::Global().Arm("engine.stage_crash", spec).ok());

  Headers pushdown;
  pushdown.Set(kRunStorletHeader, "grep,upper");
  pushdown.Set("X-Storlet-0-Parameter-Needle", "keep");
  HttpResponse response = PushdownGet(pushdown);
  ASSERT_EQ(response.status, 200);
  ASSERT_TRUE(response.streamed());
  auto drained = response.TakeBodyStream()->ReadAll();
  ASSERT_FALSE(drained.ok()) << "the crash must surface as a status";
  EXPECT_EQ(drained.status().code(), StatusCode::kAborted);
  Failpoints::Global().DisarmAll();

  // The path heals once the fault is gone, and nothing leaked.
  HttpResponse healed = PushdownGet(pushdown);
  ASSERT_EQ(healed.status, 200);
  EXPECT_FALSE(healed.body().empty());
  EXPECT_EQ(cluster_->metrics().GetGauge("storlet.buffered_bytes")->value(),
            0);
}

TEST_F(StreamingEquivalenceTest, AbandonedResponseTearsDownPipeline) {
  SetChunkSize(64);
  Headers pushdown;
  pushdown.Set(kRunStorletHeader, "grep,upper");
  pushdown.Set("X-Storlet-0-Parameter-Needle", "keep");
  {
    HttpResponse response = PushdownGet(pushdown);
    ASSERT_EQ(response.status, 200);
    ASSERT_TRUE(response.streamed());
    // Dropped without draining: stage threads must unwind, not leak or
    // deadlock (the test would hang here if teardown were broken).
  }
  Gauge* gauge = cluster_->metrics().GetGauge("storlet.buffered_bytes");
  EXPECT_EQ(gauge->value(), 0);
}

}  // namespace
}  // namespace scoop
