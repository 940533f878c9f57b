// scoop_cli: a small operator client for a running scoopd deployment.
//
//   scoop_cli health  <url>
//   scoop_cli metrics <url>
//   scoop_cli qos     <url>
//   scoop_cli auth    <url> <tenant> <key>
//   scoop_cli put     <url> <tenant> <key> <container> <object> <data>
//   scoop_cli get     <url> <tenant> <key> <container> <object>
//   scoop_cli ls      <url> <tenant> <key> <container> [prefix]
//
// <url> is a transport URL, e.g. tcp://127.0.0.1:9000 (several
// comma-separated proxy endpoints round-robin). The data-path commands
// fetch a token from GET /auth/v1.0 first; the account comes back in
// X-Storage-Account. See docs/RUNBOOK.md.
#include <cstdio>
#include <string>
#include <utility>

#include "net/transport.h"
#include "objectstore/cluster.h"
#include "objectstore/http.h"

namespace scoop {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "scoop_cli: %s\n", message.c_str());
  return 1;
}

// GET /auth/v1.0 -> (token, account).
Result<std::pair<std::string, std::string>> Authenticate(
    net::TcpTransport& transport, const std::string& tenant,
    const std::string& key) {
  Request request = Request::Get("/auth/v1.0");
  request.headers.Set("X-Auth-User", tenant);
  request.headers.Set("X-Auth-Key", key);
  HttpResponse response = transport.RoundTrip(std::move(request));
  if (!response.ok()) {
    return Status::Unauthorized("auth -> " + std::to_string(response.status) +
                                " " + response.TakeBody());
  }
  auto token = response.headers.Get("X-Auth-Token");
  auto account = response.headers.Get("X-Storage-Account");
  if (!token || !account) {
    return Status::Internal("auth response missing token/account headers");
  }
  return std::make_pair(std::string(*token), std::string(*account));
}

Result<SwiftClient> MakeClient(net::TcpTransport& transport,
                               const std::string& tenant,
                               const std::string& key) {
  SCOOP_ASSIGN_OR_RETURN(auto creds, Authenticate(transport, tenant, key));
  net::TcpTransport* raw = &transport;
  SwiftClient client(
      [raw](Request request) { return raw->RoundTrip(std::move(request)); },
      creds.second, creds.first);
  // Account PUT is idempotent; do it on every run so a fresh proxy
  // process (accounts are in-memory) accepts container ops immediately.
  HttpResponse r = client.Send(Request::Put("/" + creds.second, ""));
  if (!r.ok()) {
    return Status::Internal("account PUT -> " + std::to_string(r.status));
  }
  return client;
}

int Run(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: scoop_cli <health|metrics|qos|auth|put|get|ls> <url> "
                 "[args...]\n");
    return 2;
  }
  std::string command = argv[1];
  auto endpoints = net::ParseScoopUrl(argv[2]);
  if (!endpoints.ok()) return Fail(endpoints.status().ToString());
  net::TcpTransport transport(*endpoints);

  if (command == "health" || command == "metrics" || command == "qos") {
    // `qos` dumps the proxy's per-tenant bucket/queue/shed counters
    // (QosController::ToJson; "{"enabled": false}" when QoS is off).
    Request request = Request::Get(command == "health" ? "/__scoop/health"
                                   : command == "qos"  ? "/__scoop/qos"
                                                       : "/__scoop/metrics");
    HttpResponse response = transport.RoundTrip(std::move(request));
    std::string body = response.TakeBody();
    if (!response.ok()) {
      return Fail(std::to_string(response.status) + " " + body);
    }
    std::fputs(body.c_str(), stdout);
    return 0;
  }

  if (command == "auth") {
    if (argc != 5) return Fail("usage: auth <url> <tenant> <key>");
    auto creds = Authenticate(transport, argv[3], argv[4]);
    if (!creds.ok()) return Fail(creds.status().ToString());
    std::printf("token: %s\naccount: %s\n", creds->first.c_str(),
                creds->second.c_str());
    return 0;
  }

  if (command == "put") {
    if (argc != 8) {
      return Fail("usage: put <url> <tenant> <key> <container> <object> "
                  "<data>");
    }
    auto client = MakeClient(transport, argv[3], argv[4]);
    if (!client.ok()) return Fail(client.status().ToString());
    Status s = client->CreateContainer(argv[5]);
    if (!s.ok()) return Fail(s.ToString());
    s = client->PutObject(argv[5], argv[6], argv[7]);
    if (!s.ok()) return Fail(s.ToString());
    std::printf("put %s/%s (%zu bytes)\n", argv[5], argv[6],
                std::string(argv[7]).size());
    return 0;
  }

  if (command == "get") {
    if (argc != 7) {
      return Fail("usage: get <url> <tenant> <key> <container> <object>");
    }
    auto client = MakeClient(transport, argv[3], argv[4]);
    if (!client.ok()) return Fail(client.status().ToString());
    Result<std::string> body = client->GetObject(argv[5], argv[6]);
    if (!body.ok()) return Fail(body.status().ToString());
    std::fwrite(body->data(), 1, body->size(), stdout);
    return 0;
  }

  if (command == "ls") {
    if (argc != 6 && argc != 7) {
      return Fail("usage: ls <url> <tenant> <key> <container> [prefix]");
    }
    auto client = MakeClient(transport, argv[3], argv[4]);
    if (!client.ok()) return Fail(client.status().ToString());
    auto objects = client->ListObjects(argv[5], argc == 7 ? argv[6] : "");
    if (!objects.ok()) return Fail(objects.status().ToString());
    for (const ObjectInfo& info : *objects) {
      std::printf("%s %llu %s\n", info.name.c_str(),
                  static_cast<unsigned long long>(info.size),
                  info.etag.c_str());
    }
    return 0;
  }

  return Fail("unknown command: " + command);
}

}  // namespace
}  // namespace scoop

int main(int argc, char** argv) { return scoop::Run(argc, argv); }
