#include "net/server.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "common/strings.h"
#include "common/trace.h"

namespace scoop {
namespace net {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The response sent without consulting the handler when a listener limit
// trips (PROTOCOL.md "Limits"): connection overflow gets Connection:
// close, in-flight overflow keeps the connection for a later retry.
std::string CannedReject(bool keep_alive) {
  HttpResponse resp = HttpResponse::Make(503);
  // Every 503 on the wire carries its backoff hint (PROTOCOL.md §4):
  // clients and the transport LB treat it as the retry floor. A capacity
  // reject clears quickly, hence the small millisecond floor.
  resp.headers.Set(kRetryAfterHeader, "1");
  resp.headers.Set(kRetryAfterMsHeader, "50");
  std::string body = "scoop: listener over capacity";
  return SerializeResponseHead(resp, BodyFraming::kIdentity, body.size(),
                               keep_alive) +
         body;
}

}  // namespace

// One accepted connection. The reactor thread owns the parse/lifecycle
// fields; `mu` (lockrank::kNetConn) guards the outbox shared with the
// worker that streams the response.
struct TcpServer::Conn {
  explicit Conn(UniqueFd f)
      : fd(std::move(f)),
        fd_num(fd.get()),
        last_activity(std::chrono::steady_clock::now()) {}

  UniqueFd fd;  // UNGUARDED: reactor-thread-owned
  const int fd_num;  // stable copy for workers (fd is reactor-owned)

  // --- reactor-thread-owned (each UNGUARDED: only the reactor thread
  // touches these; workers reach the connection solely through mu) -------
  RequestParser parser;    // UNGUARDED: reactor-thread-owned
  std::string inbuf;       // UNGUARDED: reactor-owned; not yet parsed
  bool reading = true;     // UNGUARDED: reactor-owned EPOLLIN wish
  bool handler_running = false;  // UNGUARDED: reactor-thread-owned
  uint32_t interest = 0;   // UNGUARDED: reactor-owned epoll arming
  std::chrono::steady_clock::time_point last_activity;  // UNGUARDED: reactor
  int64_t read_start_ns = 0;  // UNGUARDED: reactor-owned head timer

  // --- shared with workers ----------------------------------------------
  Mutex mu{"net.conn", lockrank::kNetConn};
  CondVar cv;  // signals outbox drained below the watermark, or teardown
  std::string outbox GUARDED_BY(mu);
  size_t outbox_pos GUARDED_BY(mu) = 0;  // flushed prefix of outbox
  bool response_done GUARDED_BY(mu) = false;
  bool response_keep_alive GUARDED_BY(mu) = true;
  bool aborted GUARDED_BY(mu) = false;  // tear down without flushing
  bool closed GUARDED_BY(mu) = false;   // reactor closed; workers stop
  int64_t write_start_ns GUARDED_BY(mu) = 0;

  size_t PendingOut() REQUIRES(mu) { return outbox.size() - outbox_pos; }
};

TcpServer::TcpServer(TcpServerConfig config, HttpHandler handler,
                     MetricRegistry* metrics)
    : config_(std::move(config)), handler_(std::move(handler)) {
  static MetricRegistry* fallback = new MetricRegistry();
  if (metrics == nullptr) metrics = fallback;
  accepts_ = metrics->GetCounter("net.accepts");
  limit_rejects_ = metrics->GetCounter("net.limit_rejects");
  conns_active_ = metrics->GetGauge("net.conns_active");
  read_us_ = metrics->GetHistogram("net.read_us");
  write_us_ = metrics->GetHistogram("net.write_us");
}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(
    const TcpServerConfig& config, HttpHandler handler,
    MetricRegistry* metrics) {
  auto server = std::unique_ptr<TcpServer>(
      new TcpServer(config, std::move(handler), metrics));
  SCOOP_ASSIGN_OR_RETURN(
      server->listen_fd_,
      ListenTcp(config.host, config.port, config.backlog));
  SCOOP_ASSIGN_OR_RETURN(server->port_,
                         GetBoundPort(server->listen_fd_.get()));
  server->epoll_fd_ = UniqueFd(epoll_create1(EPOLL_CLOEXEC));
  if (!server->epoll_fd_.valid()) {
    return Status::IOError(StrFormat("epoll_create1: %s", strerror(errno)));
  }
  server->wake_fd_ = UniqueFd(eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!server->wake_fd_.valid()) {
    return Status::IOError(StrFormat("eventfd: %s", strerror(errno)));
  }
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = server->listen_fd_.get();
  if (epoll_ctl(server->epoll_fd_.get(), EPOLL_CTL_ADD,
                server->listen_fd_.get(), &ev) < 0) {
    return Status::IOError(StrFormat("epoll_ctl(listen): %s",
                                     strerror(errno)));
  }
  ev.data.fd = server->wake_fd_.get();
  if (epoll_ctl(server->epoll_fd_.get(), EPOLL_CTL_ADD,
                server->wake_fd_.get(), &ev) < 0) {
    return Status::IOError(StrFormat("epoll_ctl(wake): %s", strerror(errno)));
  }
  server->workers_ =
      std::make_unique<ThreadPool>(std::max<size_t>(1, config.num_workers));
  server->reactor_ = std::thread(&TcpServer::ReactorLoop, server.get());
  return server;
}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::Stop() {
  if (stopping_.exchange(true)) {
    if (reactor_.joinable()) reactor_.join();
    return;
  }
  Wake();
  if (reactor_.joinable()) reactor_.join();
  listen_fd_.Reset();  // release the port as soon as the reactor is gone
  // Reactor is gone: release any worker blocked on outbox backpressure so
  // the pool can drain, then join the workers before tearing sockets down.
  for (auto& [fd, conn] : conns_) {
    MutexLock lock(conn->mu);
    conn->closed = true;
    conn->cv.NotifyAll();
  }
  workers_.reset();
  conns_active_->Add(-static_cast<int64_t>(conns_.size()));
  conns_.clear();
}

void TcpServer::Wake() {
  uint64_t one = 1;
  // Best-effort: a full eventfd counter already guarantees a wakeup.
  ssize_t ignored = write(wake_fd_.get(), &one, sizeof(one));
  (void)ignored;
}

void TcpServer::NotifyDirty(int fd) {
  {
    MutexLock lock(reactor_mu_);
    dirty_.push_back(fd);
  }
  Wake();
}

void TcpServer::ReactorLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  auto last_sweep = std::chrono::steady_clock::now();
  while (!stopping_.load(std::memory_order_relaxed)) {
    int n = epoll_wait(epoll_fd_.get(), events, kMaxEvents, 250);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sensible left to do
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t mask = events[i].events;
      if (fd == listen_fd_.get()) {
        HandleAccept();
        continue;
      }
      if (fd == wake_fd_.get()) {
        uint64_t drained;
        while (read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      // Keep the Conn alive across nested CloseConn calls.
      std::shared_ptr<Conn> conn = it->second;
      if (mask & (EPOLLHUP | EPOLLERR)) {
        CloseConn(fd);
        continue;
      }
      if (mask & (EPOLLIN | EPOLLRDHUP)) HandleReadable(conn.get());
      if (conns_.count(fd) != 0 && (mask & EPOLLOUT) != 0) {
        HandleWritable(conn.get());
      }
    }
    // Workers asked for attention: flush/teardown their connections.
    std::vector<int> dirty;
    {
      MutexLock lock(reactor_mu_);
      dirty.swap(dirty_);
    }
    for (int fd : dirty) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      // Aborted connections flush what was already enqueued (the head
      // and the chunks sent before the producer died) and are then torn
      // down by FinishResponseIfFlushed — the client must see the torn
      // body, not a vanished response.
      HandleWritable(conn.get());
    }
    auto now = std::chrono::steady_clock::now();
    if (config_.idle_timeout_ms > 0 &&
        now - last_sweep > std::chrono::milliseconds(250)) {
      last_sweep = now;
      SweepIdle();
    }
  }
}

void TcpServer::HandleAccept() {
  for (;;) {
    int raw = accept4(listen_fd_.get(), nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    UniqueFd fd(raw);
    int one = 1;
    // Best-effort: NODELAY is a latency nicety, not a correctness need.
    setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (conns_.size() >= config_.max_connections) {
      limit_rejects_->Increment();
      std::string reject = CannedReject(/*keep_alive=*/false);
      // Single best-effort write; the canned head fits any socket buffer.
      ssize_t ignored =
          send(fd.get(), reject.data(), reject.size(), MSG_NOSIGNAL);
      (void)ignored;
      continue;  // fd closes on scope exit
    }
    accepts_->Increment();
    conns_active_->Add(1);
    auto conn = std::make_shared<Conn>(std::move(fd));
    conn->parser = RequestParser(config_.max_body_bytes);
    epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = conn->fd_num;
    conn->interest = ev.events;
    if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd_num, &ev) < 0) {
      conns_active_->Add(-1);
      continue;  // conn (and its fd) dies on scope exit
    }
    conns_.emplace(conn->fd_num, std::move(conn));
  }
}

void TcpServer::HandleReadable(Conn* conn) {
  char buf[kDefaultStreamChunk];
  for (;;) {
    ssize_t n = recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn->last_activity = std::chrono::steady_clock::now();
      if (conn->read_start_ns == 0 && conn->reading) {
        conn->read_start_ns = NowNs();
      }
      conn->inbuf.append(buf, static_cast<size_t>(n));
      if (!AdvanceParser(conn)) {
        CloseConn(conn->fd_num);
        return;
      }
      if (!conn->reading) break;  // request dispatched; pause reading
      continue;
    }
    if (n == 0) {
      // Peer closed. Mid-response the worker learns via closed/aborted;
      // between requests this is a normal keep-alive hangup.
      CloseConn(conn->fd_num);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn->fd_num);
    return;
  }
  if (conns_.count(conn->fd_num) != 0) UpdateInterest(conn);
}

bool TcpServer::AdvanceParser(Conn* conn) {
  while (conns_.count(conn->fd_num) != 0 && conn->reading &&
         !conn->inbuf.empty()) {
    Result<size_t> consumed = conn->parser.Consume(conn->inbuf);
    if (!consumed.ok()) return false;  // framing error: connection-fatal
    conn->inbuf.erase(0, *consumed);
    if (!conn->parser.done()) break;  // need more bytes
    if (conn->read_start_ns != 0) {
      read_us_->Record((NowNs() - conn->read_start_ns) / 1000);
      conn->read_start_ns = 0;
    }
    conn->reading = false;
    DispatchRequest(conn);
  }
  return true;
}

void TcpServer::DispatchRequest(Conn* conn) {
  Request request = conn->parser.Take();
  bool keep_alive = conn->parser.keep_alive();
  conn->parser.Reset();
  if (inflight_.load(std::memory_order_relaxed) >= config_.max_inflight) {
    limit_rejects_->Increment();
    {
      MutexLock lock(conn->mu);
      if (conn->write_start_ns == 0) conn->write_start_ns = NowNs();
      conn->outbox.append(CannedReject(keep_alive));
      conn->response_done = true;
      conn->response_keep_alive = keep_alive;
    }
    // Flush via the dirty queue, not a direct HandleWritable: this call
    // sits under AdvanceParser, and re-entering the flush/finish path
    // here would recurse once per pipelined over-limit request.
    NotifyDirty(conn->fd_num);
    return;
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);
  conn->handler_running = true;
  auto shared = conns_.at(conn->fd_num);
  workers_->Submit([this, shared, request = std::move(request),
                    keep_alive]() mutable {
    RunHandler(std::move(shared), std::move(request), keep_alive);
  });
}

void TcpServer::RunHandler(std::shared_ptr<Conn> conn, Request request,
                           bool keep_alive) {
  TraceContext parent = TraceContextFromHeaders(request.headers);
  TraceSpan span("net.server", parent);
  span.SetTag("path", request.path);
  StampTraceContext(span.context(), &request.headers);
  bool head_request = request.method == HttpMethod::kHead;
  HttpResponse response = handler_(request);
  span.End();

  // Frees the in-flight slot, once. Every exit calls it before the
  // response's last bytes are queued: a client that has read the whole
  // response may send its next request at once, and must find the slot
  // free.
  bool slot_held = true;
  auto release_slot = [&] {
    if (slot_held) inflight_.fetch_sub(1, std::memory_order_relaxed);
    slot_held = false;
  };
  if (head_request || !response.streamed()) {
    std::string body = head_request ? std::string() : response.TakeBody();
    BodyFraming framing =
        head_request ? BodyFraming::kNone : BodyFraming::kIdentity;
    // A streamed HEAD body (unusual but legal) is dropped unread: the
    // producer unblocks through its abandoned-reader path.
    std::string out =
        SerializeResponseHead(response, framing, body.size(), keep_alive);
    out.append(body);
    release_slot();
    Enqueue(conn.get(), out, /*response_done=*/true, keep_alive);
  } else {
    std::shared_ptr<ByteStream> stream = response.TakeBodyStream();
    std::shared_ptr<const Headers> trailers = response.trailers();
    if (Enqueue(conn.get(),
                SerializeResponseHead(response, BodyFraming::kChunked, 0,
                                      keep_alive),
                /*response_done=*/false, keep_alive)) {
      char buf[kDefaultStreamChunk];
      for (;;) {
        Result<size_t> got = stream->Read(buf, sizeof(buf));
        if (!got.ok()) {
          // Mid-stream producer failure: tear the connection down before
          // the terminal chunk so the client's stream errors — the wire
          // image of the in-process flip-to-500 contract.
          release_slot();
          AbortConn(conn.get());
          break;
        }
        if (*got == 0) {
          // Producer published trailers at EOF (EofCallbackByteStream
          // fires on the 0-byte read above), so read them only now.
          release_slot();
          Enqueue(conn.get(), EncodeFinalChunk(trailers.get()),
                  /*response_done=*/true, keep_alive);
          break;
        }
        if (!Enqueue(conn.get(), EncodeChunk({buf, *got}),
                     /*response_done=*/false, keep_alive)) {
          break;  // connection gone; dropping `stream` frees the producer
        }
      }
    }
  }
  // Every other exit found the connection gone: nothing is left to queue.
  release_slot();
}

bool TcpServer::Enqueue(Conn* conn, std::string_view data, bool response_done,
                        bool keep_alive) {
  {
    MutexLock lock(conn->mu);
    while (!conn->closed && !conn->aborted &&
           conn->PendingOut() > config_.outbox_max_bytes) {
      conn->cv.Wait(conn->mu);
    }
    if (conn->closed || conn->aborted) return false;
    if (conn->write_start_ns == 0) conn->write_start_ns = NowNs();
    conn->outbox.append(data);
    if (response_done) {
      conn->response_done = true;
      conn->response_keep_alive = keep_alive;
    }
  }
  NotifyDirty(conn->fd_num);
  return true;
}

void TcpServer::AbortConn(Conn* conn) {
  {
    MutexLock lock(conn->mu);
    conn->aborted = true;
    conn->cv.NotifyAll();
  }
  NotifyDirty(conn->fd_num);
}

void TcpServer::HandleWritable(Conn* conn) {
  bool io_error = false;
  {
    MutexLock lock(conn->mu);
    while (conn->PendingOut() > 0) {
      ssize_t n = send(conn->fd.get(), conn->outbox.data() + conn->outbox_pos,
                       conn->PendingOut(), MSG_NOSIGNAL);
      if (n > 0) {
        conn->outbox_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      io_error = true;  // peer reset mid-response
      break;
    }
    if (conn->outbox_pos == conn->outbox.size()) {
      conn->outbox.clear();
      conn->outbox_pos = 0;
    } else if (conn->outbox_pos > (1u << 20)) {
      conn->outbox.erase(0, conn->outbox_pos);
      conn->outbox_pos = 0;
    }
    if (conn->PendingOut() <= config_.outbox_max_bytes) {
      conn->cv.NotifyAll();
    }
  }
  if (io_error) {
    CloseConn(conn->fd_num);
    return;
  }
  conn->last_activity = std::chrono::steady_clock::now();
  FinishResponseIfFlushed(conn);
}

void TcpServer::FinishResponseIfFlushed(Conn* conn) {
  int fd = conn->fd_num;
  bool finished = false;
  bool keep_alive = true;
  int aborted = 0;  // 1: flushed, close now; 2: bytes pending, flush on
  {
    MutexLock lock(conn->mu);
    if (conn->aborted) {
      // Mid-stream abort: close as soon as the partial response is on
      // the wire (no terminal chunk — that's the point); until then keep
      // EPOLLOUT armed via UpdateInterest below.
      aborted = conn->PendingOut() == 0 ? 1 : 2;
    } else if (conn->response_done && conn->PendingOut() == 0) {
      finished = true;
      keep_alive = conn->response_keep_alive;
      conn->response_done = false;
      if (conn->write_start_ns != 0) {
        write_us_->Record((NowNs() - conn->write_start_ns) / 1000);
        conn->write_start_ns = 0;
      }
    }
  }
  if (aborted == 1) {
    CloseConn(fd);
    return;
  }
  if (!finished) {
    // Not finished (or not flushed, or aborted-with-pending-bytes): keep
    // EPOLLOUT armed so the remaining bytes drain.
    UpdateInterest(conn);
    return;
  }
  if (!keep_alive) {
    CloseConn(fd);
    return;
  }
  conn->handler_running = false;
  conn->reading = true;
  conn->read_start_ns = conn->inbuf.empty() ? 0 : NowNs();
  conn->last_activity = std::chrono::steady_clock::now();
  // A pipelined next request may already be buffered.
  if (!AdvanceParser(conn)) {
    CloseConn(fd);
    return;
  }
  if (conns_.count(fd) != 0) UpdateInterest(conn);
}

void TcpServer::UpdateInterest(Conn* conn) {
  uint32_t want = 0;
  if (conn->reading) want |= EPOLLIN | EPOLLRDHUP;
  {
    MutexLock lock(conn->mu);
    if (conn->PendingOut() > 0 || conn->response_done) want |= EPOLLOUT;
  }
  if (want == conn->interest) return;
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = want;
  ev.data.fd = conn->fd_num;
  if (epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd_num, &ev) == 0) {
    conn->interest = want;
  }
}

void TcpServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  std::shared_ptr<Conn> conn = it->second;
  conns_.erase(it);
  {
    MutexLock lock(conn->mu);
    conn->closed = true;
    conn->cv.NotifyAll();
  }
  epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  conn->fd.Reset();  // actually closes the socket (reactor thread only)
  conns_active_->Add(-1);
}

void TcpServer::SweepIdle() {
  auto now = std::chrono::steady_clock::now();
  auto limit = std::chrono::milliseconds(config_.idle_timeout_ms);
  std::vector<int> expired;
  for (auto& [fd, conn] : conns_) {
    if (conn->handler_running) continue;  // long streams are not idle
    if (now - conn->last_activity > limit) expired.push_back(fd);
  }
  for (int fd : expired) CloseConn(fd);
}

}  // namespace net
}  // namespace scoop
