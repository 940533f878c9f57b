#include "net/transport.h"

#include <chrono>
#include <utility>

#include "common/strings.h"

namespace scoop {
namespace net {

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TcpTransport::TcpTransport(const std::vector<Endpoint>& endpoints,
                           MetricRegistry* metrics,
                           TcpClientConfig base_config) {
  for (const Endpoint& ep : endpoints) {
    TcpClientConfig config = base_config;
    config.host = ep.host;
    config.port = ep.port;
    clients_.push_back(std::make_unique<TcpClient>(config, metrics));
    penalty_until_ns_.push_back(std::make_unique<std::atomic<int64_t>>(0));
  }
}

HttpResponse TcpTransport::RoundTrip(Request request) {
  if (clients_.empty()) {
    return HttpResponse::Make(503, "tcp transport has no endpoints");
  }
  const size_t n = clients_.size();
  uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  // Backpressure-aware selection: take the first non-penalized endpoint
  // from the round-robin position; all penalized → the rr choice stands.
  size_t chosen = idx % n;
  int64_t now_ns = SteadyNowNs();
  for (size_t probe = 0; probe < n; ++probe) {
    size_t candidate = (idx + probe) % n;
    if (penalty_until_ns_[candidate]->load(std::memory_order_relaxed) <=
        now_ns) {
      chosen = candidate;
      break;
    }
  }
  HttpResponse response = clients_[chosen]->RoundTrip(std::move(request));
  if (response.status == 503) {
    // Honor the advertised floor: keep traffic off this endpoint until
    // then. A bare 503 (no hint) gets a minimal 10ms cool-off so a hot
    // round-robin loop does not hammer a refusing replica.
    int64_t floor_ms = RetryAfterMillis(response.headers).value_or(10);
    penalty_until_ns_[chosen]->store(now_ns + floor_ms * 1'000'000,
                                     std::memory_order_relaxed);
  } else if (response.ok()) {
    penalty_until_ns_[chosen]->store(0, std::memory_order_relaxed);
  }
  return response;
}

Result<std::vector<TcpTransport::Endpoint>> ParseScoopUrl(
    std::string_view url) {
  constexpr std::string_view kTcpScheme = "tcp://";
  if (!StartsWith(url, kTcpScheme)) {
    return Status::InvalidArgument("not a tcp:// url: " + std::string(url));
  }
  std::vector<TcpTransport::Endpoint> endpoints;
  std::string_view rest = url.substr(kTcpScheme.size());
  for (std::string_view part : Split(rest, ',')) {
    size_t colon = part.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 == part.size()) {
      return Status::InvalidArgument("bad endpoint (want host:port): " +
                                     std::string(part));
    }
    SCOOP_ASSIGN_OR_RETURN(int64_t port,
                           ParseInt64(part.substr(colon + 1)));
    if (port < 1 || port > 65535) {
      return Status::InvalidArgument("port out of range: " +
                                     std::string(part));
    }
    TcpTransport::Endpoint ep;
    ep.host = std::string(part.substr(0, colon));
    ep.port = static_cast<uint16_t>(port);
    endpoints.push_back(std::move(ep));
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("tcp:// url names no endpoints");
  }
  return endpoints;
}

}  // namespace net
}  // namespace scoop
