// Unit tests of the TCP transport (src/net): wire framing under
// arbitrary re-chunking, truncation and malformed-frame handling, the
// epoll server + pooled client over real loopback sockets, keep-alive
// reuse, listener limits, and transport URL parsing. The byte-identity
// suites against the full cluster live in tcp_e2e_test.cc.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"

namespace scoop {
namespace net {
namespace {

// --- Framing: requests ------------------------------------------------------

// Feeds `wire` to a RequestParser in `step`-byte slices; the parser must
// make identical progress no matter how the bytes are split.
Request ParseRequestInSteps(const std::string& wire, size_t step) {
  RequestParser parser;
  size_t offset = 0;
  while (offset < wire.size()) {
    std::string_view slice(wire.data() + offset,
                           std::min(step, wire.size() - offset));
    auto used = parser.Consume(slice);
    EXPECT_TRUE(used.ok()) << used.status();
    EXPECT_GT(*used, 0u);
    offset += *used;
  }
  EXPECT_TRUE(parser.done());
  return parser.Take();
}

TEST(WireRequest, RoundTripsUnderAnyRechunking) {
  Request request = Request::Put("/acct/cont/obj", "hello body");
  request.headers.Set("X-Auth-Token", "tk123");
  request.headers.Set("X-Scoop-Task", "{\"storlet\":\"csv\"}");
  std::string wire = SerializeRequest(request);

  for (size_t step : {size_t{1}, size_t{2}, size_t{7}, wire.size()}) {
    SCOPED_TRACE(step);
    Request parsed = ParseRequestInSteps(wire, step);
    EXPECT_EQ(parsed.method, HttpMethod::kPut);
    EXPECT_EQ(parsed.path, "/acct/cont/obj");
    EXPECT_EQ(parsed.body, "hello body");
    EXPECT_EQ(parsed.headers.GetOr("X-Auth-Token", ""), "tk123");
    // Framing headers are the transport's, not the handler's.
    EXPECT_FALSE(parsed.headers.Has(kWireConnection));
  }
}

TEST(WireRequest, PipelinedRequestsParseBackToBack) {
  std::string wire = SerializeRequest(Request::Get("/a/b/one")) +
                     SerializeRequest(Request::Put("/a/b/two", "payload"));
  RequestParser parser;
  auto used = parser.Consume(wire);
  ASSERT_TRUE(used.ok());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.Take().path, "/a/b/one");
  parser.Reset();
  std::string_view rest = std::string_view(wire).substr(*used);
  used = parser.Consume(rest);
  ASSERT_TRUE(used.ok());
  ASSERT_TRUE(parser.done());
  Request second = parser.Take();
  EXPECT_EQ(second.path, "/a/b/two");
  EXPECT_EQ(second.body, "payload");
}

TEST(WireRequest, ConnectionCloseCaptured) {
  std::string wire =
      "GET /a HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n";
  RequestParser parser;
  ASSERT_TRUE(parser.Consume(wire).ok());
  ASSERT_TRUE(parser.done());
  EXPECT_FALSE(parser.keep_alive());
}

TEST(WireRequest, ChunkedRequestsRejected) {
  std::string wire =
      "PUT /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  RequestParser parser;
  EXPECT_FALSE(parser.Consume(wire).ok());
}

TEST(WireRequest, BodyOverCapRejected) {
  RequestParser parser(/*max_body_bytes=*/8);
  std::string wire = "PUT /a HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
  auto used = parser.Consume(wire);
  ASSERT_FALSE(used.ok());
  EXPECT_EQ(used.status().code(), StatusCode::kResourceExhausted);
}

TEST(WireRequest, OversizedHeadRejected) {
  RequestParser parser;
  std::string huge = "GET /a HTTP/1.1\r\nX-Pad: " +
                     std::string(kMaxHeadBytes, 'x');
  EXPECT_FALSE(parser.Consume(huge).ok());
}

TEST(WireRequest, GarbageStartLineRejected) {
  RequestParser parser;
  EXPECT_FALSE(parser.Consume("NONSENSE\r\n\r\n").ok());
}

// --- Framing: responses -----------------------------------------------------

// Drives head + body through a ResponseParser in `step`-byte slices.
void ParseResponseInSteps(const std::string& wire, size_t step,
                          ResponseParser* parser, std::string* body) {
  size_t offset = 0;
  while (!parser->head_done()) {
    ASSERT_LT(offset, wire.size());
    std::string_view slice(wire.data() + offset,
                           std::min(step, wire.size() - offset));
    auto used = parser->ConsumeHead(slice);
    ASSERT_TRUE(used.ok()) << used.status();
    offset += *used;
  }
  while (offset < wire.size()) {
    std::string_view slice(wire.data() + offset,
                           std::min(step, wire.size() - offset));
    auto used = parser->ConsumeBody(slice, body);
    ASSERT_TRUE(used.ok()) << used.status();
    ASSERT_GT(*used, 0u);
    offset += *used;
  }
}

TEST(WireResponse, IdentityBodyUnderAnyRechunking) {
  HttpResponse source = HttpResponse::Make(200, "");
  source.headers.Set("Etag", "abc123");
  std::string body_bytes = "identity-framed payload";
  std::string wire = SerializeResponseHead(source, BodyFraming::kIdentity,
                                           body_bytes.size(),
                                           /*keep_alive=*/true) +
                     body_bytes;
  for (size_t step : {size_t{1}, size_t{3}, wire.size()}) {
    SCOPED_TRACE(step);
    ResponseParser parser;
    std::string body;
    ParseResponseInSteps(wire, step, &parser, &body);
    EXPECT_TRUE(parser.body_done());
    EXPECT_EQ(parser.response().status, 200);
    EXPECT_EQ(body, body_bytes);
    EXPECT_TRUE(parser.keep_alive());
    // Identity framing rewrites Content-Length to the exact byte count.
    EXPECT_EQ(parser.response().headers.GetOr(kWireContentLength, ""),
              std::to_string(body_bytes.size()));
  }
}

TEST(WireResponse, ChunkedBodyWithTrailersUnderAnyRechunking) {
  HttpResponse source = HttpResponse::Make(200, "");
  Headers trailers;
  trailers.Set("X-Scoop-Limit-Hit", "1");
  std::string wire =
      SerializeResponseHead(source, BodyFraming::kChunked, 0,
                            /*keep_alive=*/false) +
      EncodeChunk("first ") + EncodeChunk("second") +
      EncodeFinalChunk(&trailers);
  for (size_t step : {size_t{1}, size_t{5}, wire.size()}) {
    SCOPED_TRACE(step);
    ResponseParser parser;
    std::string body;
    ParseResponseInSteps(wire, step, &parser, &body);
    EXPECT_TRUE(parser.body_done());
    EXPECT_EQ(body, "first second");
    EXPECT_EQ(parser.trailers().GetOr("X-Scoop-Limit-Hit", ""), "1");
    EXPECT_FALSE(parser.keep_alive());
    EXPECT_FALSE(parser.remaining_identity_bytes().has_value());
  }
}

TEST(WireResponse, TruncatedChunkedBodyIsNotDone) {
  HttpResponse source = HttpResponse::Make(200, "");
  std::string wire = SerializeResponseHead(source, BodyFraming::kChunked, 0,
                                           true) +
                     EncodeChunk("only half the stream arrives");
  ResponseParser parser;
  std::string body;
  ParseResponseInSteps(wire, wire.size(), &parser, &body);
  // No terminal chunk: the body must not read as complete — the client
  // maps the socket EOF that follows to an IOError, never to silence.
  EXPECT_FALSE(parser.body_done());
}

TEST(WireResponse, MalformedChunkSizeRejected) {
  HttpResponse source = HttpResponse::Make(200, "");
  std::string wire =
      SerializeResponseHead(source, BodyFraming::kChunked, 0, true);
  ResponseParser parser;
  std::string body;
  ASSERT_TRUE(parser.ConsumeHead(wire).ok());
  EXPECT_FALSE(parser.ConsumeBody("zz\r\n", &body).ok());
}

TEST(WireResponse, HeadResponseKeepsContentLengthAsMetadata) {
  HttpResponse source = HttpResponse::Make(200, "");
  source.headers.Set(kWireContentLength, "12345");  // the object size
  std::string wire =
      SerializeResponseHead(source, BodyFraming::kNone, 0, true);
  ResponseParser parser(/*expect_body=*/false);
  ASSERT_TRUE(parser.ConsumeHead(wire).ok());
  ASSERT_TRUE(parser.head_done());
  // No wire bytes follow, but the app-level header (object size) stays.
  EXPECT_TRUE(parser.body_done());
  EXPECT_EQ(parser.response().headers.GetOr(kWireContentLength, ""), "12345");
}

// --- Server + client over loopback ------------------------------------------

// A stream that yields `data` then fails, for mid-stream abort tests.
class FailingByteStream : public ByteStream {
 public:
  explicit FailingByteStream(std::string data) : data_(std::move(data)) {}

  Result<size_t> Read(char* buf, size_t n) override {
    if (pos_ >= data_.size()) return Status::IOError("producer died");
    size_t take = std::min(n, data_.size() - pos_);
    memcpy(buf, data_.data() + pos_, take);
    pos_ += take;
    return take;
  }

 private:
  std::string data_;
  size_t pos_ = 0;
};

class TcpLoopbackTest : public ::testing::Test {
 protected:
  std::unique_ptr<TcpServer> StartEcho(TcpServerConfig config = {}) {
    auto server = TcpServer::Start(
        config,
        [](Request& request) {
          HttpResponse response =
              HttpResponse::Make(200, "echo:" + request.body);
          response.headers.Set("X-Echo-Path", request.path);
          return response;
        },
        &metrics_);
    EXPECT_TRUE(server.ok()) << server.status();
    return std::move(*server);
  }

  TcpClientConfig ClientFor(const TcpServer& server) {
    TcpClientConfig config;
    config.host = server.host();
    config.port = server.port();
    return config;
  }

  MetricRegistry metrics_;
};

TEST_F(TcpLoopbackTest, RoundTripEchoes) {
  auto server = StartEcho();
  TcpClient client(ClientFor(*server), &metrics_);
  HttpResponse response = client.RoundTrip(Request::Put("/a/b/c", "ping"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.GetOr("X-Echo-Path", ""), "/a/b/c");
  EXPECT_EQ(response.TakeBody(), "echo:ping");
}

TEST_F(TcpLoopbackTest, KeepAliveReusesPooledConnection) {
  auto server = StartEcho();
  TcpClient client(ClientFor(*server), &metrics_);
  for (int i = 0; i < 3; ++i) {
    HttpResponse response =
        client.RoundTrip(Request::Put("/a/b/c", std::to_string(i)));
    EXPECT_EQ(response.TakeBody(), "echo:" + std::to_string(i));
  }
  EXPECT_EQ(metrics_.GetCounter("net.connects")->value(), 1);
  EXPECT_EQ(metrics_.GetCounter("net.reused_conns")->value(), 2);
  EXPECT_EQ(metrics_.GetCounter("net.accepts")->value(), 1);
}

TEST_F(TcpLoopbackTest, LargeBodyRoundTrips) {
  auto server = StartEcho();
  TcpClient client(ClientFor(*server), &metrics_);
  std::string big(3 * 1024 * 1024, 'x');
  big += "tail";
  HttpResponse response = client.RoundTrip(Request::Put("/a/b/c", big));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.TakeBody(), "echo:" + big);
}

TEST_F(TcpLoopbackTest, StreamedBodyAndTrailersSurviveTheWire) {
  auto trailers = std::make_shared<Headers>();
  trailers->Set("X-Scoop-Limit-Hit", "1");
  auto server_result = TcpServer::Start(
      {},
      [trailers](Request&) {
        HttpResponse response = HttpResponse::Make(200);
        response.SetBodyStream(
            std::make_shared<StringByteStream>("streamed payload"), trailers);
        return response;
      },
      &metrics_);
  ASSERT_TRUE(server_result.ok());
  TcpClient client(ClientFor(**server_result), &metrics_);
  HttpResponse response = client.RoundTrip(Request::Get("/a/b/c"));
  EXPECT_EQ(response.status, 200);
  ASSERT_TRUE(response.streamed());
  EXPECT_EQ(response.TakeBody(), "streamed payload");
  // Materialize merged the trailers from the terminal chunk.
  EXPECT_EQ(response.headers.GetOr("X-Scoop-Limit-Hit", ""), "1");
}

TEST_F(TcpLoopbackTest, MidStreamProducerFailureBecomes500) {
  auto server_result = TcpServer::Start(
      {},
      [](Request&) {
        HttpResponse response = HttpResponse::Make(200);
        response.SetBodyStream(
            std::make_shared<FailingByteStream>("some bytes then death"));
        return response;
      },
      &metrics_);
  ASSERT_TRUE(server_result.ok());
  TcpClient client(ClientFor(**server_result), &metrics_);
  HttpResponse response = client.RoundTrip(Request::Get("/a/b/c"));
  EXPECT_EQ(response.status, 200);  // status was committed before the abort
  response.Materialize();
  // Draining hit the torn connection: same 500 the in-process contract
  // produces for a failed producer.
  EXPECT_EQ(response.status, 500);
}

TEST_F(TcpLoopbackTest, ConnectionLimitRejectsWith503) {
  TcpServerConfig config;
  config.max_connections = 1;
  auto server = StartEcho(config);

  // Occupy the single slot with a raw idle connection.
  auto occupant = ConnectTcp(server->host(), server->port(), 2000);
  ASSERT_TRUE(occupant.ok());
  Status poke = SendAll(occupant->get(), "GET", 2000);  // partial head
  ASSERT_TRUE(poke.ok());
  // Wait until the reactor registered it.
  for (int i = 0; i < 200; ++i) {
    if (metrics_.GetGauge("net.conns_active")->value() >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(metrics_.GetGauge("net.conns_active")->value(), 1);

  TcpClient client(ClientFor(*server), &metrics_);
  HttpResponse response = client.RoundTrip(Request::Get("/a/b/c"));
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(metrics_.GetCounter("net.limit_rejects")->value(), 1);
}

TEST_F(TcpLoopbackTest, InflightLimitRejectsWith503) {
  TcpServerConfig config;
  config.max_inflight = 1;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future(release.get_future());
  std::atomic<bool> first{true};
  auto server_result = TcpServer::Start(
      config,
      [&](Request& request) {
        if (first.exchange(false)) {
          entered.set_value();
          release_future.wait();
        }
        return HttpResponse::Make(200, "slow:" + request.body);
      },
      &metrics_);
  ASSERT_TRUE(server_result.ok());
  auto& server = **server_result;

  TcpClient slow_client(ClientFor(server), &metrics_);
  std::thread slow([&] {
    HttpResponse response = slow_client.RoundTrip(Request::Put("/a", "1"));
    EXPECT_EQ(response.status, 200);
  });
  entered.get_future().wait();  // the only handler slot is now taken

  TcpClient fast_client(ClientFor(server), &metrics_);
  HttpResponse rejected = fast_client.RoundTrip(Request::Put("/a", "2"));
  EXPECT_EQ(rejected.status, 503);
  EXPECT_EQ(metrics_.GetCounter("net.limit_rejects")->value(), 1);

  release.set_value();
  slow.join();
  // The keep-alive connection that got the canned reject is still usable.
  HttpResponse after = fast_client.RoundTrip(Request::Put("/a", "3"));
  EXPECT_EQ(after.TakeBody(), "slow:3");
}

TEST_F(TcpLoopbackTest, ClientRetriesStaleIdleSocketOnce) {
  auto server = StartEcho();
  TcpClient client(ClientFor(*server), &metrics_);
  EXPECT_EQ(client.RoundTrip(Request::Get("/a/b/c")).status, 200);
  // Bounce the server: the pooled socket is now dead, but a fresh
  // connection to the new listener must transparently take over.
  uint16_t port = server->port();
  server->Stop();
  TcpServerConfig config;
  config.port = port;
  server = StartEcho(config);
  HttpResponse response = client.RoundTrip(Request::Get("/a/b/c"));
  EXPECT_EQ(response.status, 200);
}

TEST_F(TcpLoopbackTest, TransportErrorWhenNoServer) {
  TcpClientConfig config;
  config.host = "127.0.0.1";
  config.port = 1;  // nothing listens here
  config.connect_timeout_ms = 500;
  TcpClient client(config, &metrics_);
  HttpResponse response = client.RoundTrip(Request::Get("/a"));
  EXPECT_EQ(response.status, 503);
  EXPECT_TRUE(response.headers.Has("X-Scoop-Net-Error"));
}

// --- Transport URLs ---------------------------------------------------------

TEST(ScoopUrlTest, ParsesSchemes) {
  auto tcp = ParseScoopUrl("tcp://127.0.0.1:9000,10.0.0.2:9001");
  ASSERT_TRUE(tcp.ok());
  ASSERT_EQ(tcp->size(), 2u);
  EXPECT_EQ((*tcp)[0].host, "127.0.0.1");
  EXPECT_EQ((*tcp)[0].port, 9000);
  EXPECT_EQ((*tcp)[1].host, "10.0.0.2");
  EXPECT_EQ((*tcp)[1].port, 9001);

  // Only sockets: the in-process cluster has no URL.
  EXPECT_FALSE(ParseScoopUrl("simnet://").ok());
  EXPECT_FALSE(ParseScoopUrl("http://x").ok());
  EXPECT_FALSE(ParseScoopUrl("tcp://").ok());
  EXPECT_FALSE(ParseScoopUrl("tcp://host").ok());
  EXPECT_FALSE(ParseScoopUrl("tcp://host:0").ok());
}

}  // namespace
}  // namespace net
}  // namespace scoop
