// The client transport over real sockets (DESIGN.md §3j): a TcpTransport
// spreads requests across a set of proxy endpoints, given directly or as
// a transport URL:
//
//   tcp://h:p[,h:p...]   real loopback/network sockets; multiple
//                        endpoints round-robin like the LB tier
#ifndef SCOOP_NET_TRANSPORT_H_
#define SCOOP_NET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "net/client.h"
#include "objectstore/http.h"

namespace scoop {
namespace net {

// One TcpClient per endpoint, requests round-robin across them —
// with a backpressure-aware twist: an endpoint answering 503 +
// Retry-After is skipped until its advertised backoff floor expires, so
// a shedding replica stops receiving traffic it would only refuse. When
// every endpoint is penalized the plain round-robin choice stands (the
// request still has to go somewhere, and the 503 it gets carries the
// freshest hint). Thread-safe: Spark-like workers issue concurrent
// partition reads through one transport.
class TcpTransport {
 public:
  struct Endpoint {
    std::string host;
    uint16_t port = 0;
  };

  TcpTransport(const std::vector<Endpoint>& endpoints,
               MetricRegistry* metrics = nullptr,
               TcpClientConfig base_config = {});

  HttpResponse RoundTrip(Request request);

 private:
  std::vector<std::unique_ptr<TcpClient>> clients_;
  // Per-endpoint penalty deadline, steady-clock nanoseconds; 0 = clear.
  // Plain stores/loads: a stale read only mis-skips one request.
  std::vector<std::unique_ptr<std::atomic<int64_t>>> penalty_until_ns_;
  std::atomic<uint64_t> next_{0};
};

// The endpoints of a tcp:// URL (see above); any other scheme is
// rejected.
Result<std::vector<TcpTransport::Endpoint>> ParseScoopUrl(
    std::string_view url);

}  // namespace net
}  // namespace scoop

#endif  // SCOOP_NET_TRANSPORT_H_
