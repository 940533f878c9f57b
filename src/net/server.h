// Epoll-based TCP server: one reactor thread doing non-blocking
// accept/read/write, a worker pool running the HttpHandler, and a
// per-connection outbox through which workers hand encoded response
// bytes back to the reactor (DESIGN.md §3j).
//
// Locking contract (ranked, see sync.h):
//  * `reactor_mu_` (lockrank::kNetReactor) guards the dirty-connection
//    queue workers use to ask the reactor for EPOLLOUT attention.
//  * Each connection's `mu` (lockrank::kNetConn) guards that
//    connection's outbox and completion flags; workers block on its
//    CondVar when the outbox is over the backpressure watermark.
//  * The reactor may take reactor_mu_ then a conn mu (rank 16 -> 17);
//    workers take a conn mu, release it, then reactor_mu_ — never both.
#ifndef SCOOP_NET_SERVER_H_
#define SCOOP_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "net/socket.h"
#include "net/wire.h"
#include "objectstore/http.h"

namespace scoop {
namespace net {

struct TcpServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0: pick an ephemeral port, read back via port()
  int backlog = 128;
  // Accepted sockets at once; the overflow accept gets a canned 503 with
  // Connection: close and counts in net.limit_rejects.
  size_t max_connections = 256;
  // Handler executions at once across all connections; an overflow
  // request gets a canned 503 without invoking the handler. A slot covers
  // the handler and its body stream, and is freed before the response's
  // last bytes are queued.
  size_t max_inflight = 64;
  // Keep-alive connections idle longer than this are closed by the
  // reactor's sweep. Also bounds how long a half-sent request head may
  // stall (slowloris guard). 0 disables the sweep.
  int idle_timeout_ms = 30'000;
  size_t max_body_bytes = kDefaultMaxBodyBytes;
  // Worker threads running handlers (the storlet pipeline parallelizes
  // internally; these bound concurrent *requests*, not stages).
  size_t num_workers = 4;
  // A streaming worker blocks once a connection's outbox holds this many
  // unflushed bytes — the wire analogue of BoundedByteQueue backpressure.
  size_t outbox_max_bytes = 1 << 20;
};

// The server; Start() spawns the reactor thread and worker pool, Stop()
// (or destruction) drains them. Metrics (optional): net.accepts,
// net.conns_active, net.limit_rejects, net.read_us, net.write_us.
class TcpServer {
 public:
  static Result<std::unique_ptr<TcpServer>> Start(
      const TcpServerConfig& config, HttpHandler handler,
      MetricRegistry* metrics = nullptr);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Idempotent; joins the reactor and waits out in-flight handlers.
  void Stop();

  uint16_t port() const { return port_; }
  const std::string& host() const { return config_.host; }

 private:
  struct Conn;

  TcpServer(TcpServerConfig config, HttpHandler handler,
            MetricRegistry* metrics);

  void ReactorLoop();
  void HandleAccept();
  void HandleReadable(Conn* conn);
  void HandleWritable(Conn* conn);
  // Feeds buffered inbound bytes to the parser; dispatches on a complete
  // request. Returns false when the connection must close.
  bool AdvanceParser(Conn* conn);
  void DispatchRequest(Conn* conn);
  void FinishResponseIfFlushed(Conn* conn);
  void UpdateInterest(Conn* conn);
  void CloseConn(int fd);
  void SweepIdle();
  void Wake();

  // Worker side: runs the handler and feeds the outbox.
  void RunHandler(std::shared_ptr<Conn> conn, Request request,
                  bool keep_alive);
  // Appends response bytes; blocks on backpressure. False when the
  // connection is gone and the worker should abandon the stream.
  // `keep_alive` is latched when `response_done` is set.
  bool Enqueue(Conn* conn, std::string_view data, bool response_done,
               bool keep_alive);
  // Marks the connection for immediate teardown (mid-stream failure).
  void AbortConn(Conn* conn);
  void NotifyDirty(int fd);

  const TcpServerConfig config_;
  const HttpHandler handler_;
  Counter* accepts_ = nullptr;       // UNGUARDED: atomic metric handle
  Counter* limit_rejects_ = nullptr;  // UNGUARDED: atomic metric handle
  Gauge* conns_active_ = nullptr;     // UNGUARDED: atomic metric handle
  ExponentialHistogram* read_us_ = nullptr;   // UNGUARDED: atomic handle
  ExponentialHistogram* write_us_ = nullptr;  // UNGUARDED: atomic handle

  // UNGUARDED: the fds and port are set once in Start() before the
  // reactor spawns, then read-only until Stop() joins the reactor.
  UniqueFd listen_fd_;
  UniqueFd epoll_fd_;   // UNGUARDED: set before the reactor spawns
  UniqueFd wake_fd_;    // UNGUARDED: set before the reactor spawns
  uint16_t port_ = 0;   // UNGUARDED: set before the reactor spawns

  std::atomic<bool> stopping_{false};
  std::atomic<size_t> inflight_{0};

  Mutex reactor_mu_{"net.reactor", lockrank::kNetReactor};
  std::vector<int> dirty_ GUARDED_BY(reactor_mu_);

  // UNGUARDED: reactor-thread-owned connection table; workers hold
  // shared_ptr<Conn> refs and synchronize through each Conn's mu.
  std::map<int, std::shared_ptr<Conn>> conns_;

  std::unique_ptr<ThreadPool> workers_;  // UNGUARDED: Start/Stop only
  std::thread reactor_;                  // UNGUARDED: Start/Stop only
};

}  // namespace net
}  // namespace scoop

#endif  // SCOOP_NET_SERVER_H_
