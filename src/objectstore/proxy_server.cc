#include "objectstore/proxy_server.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/strings.h"
#include "objectstore/object_server.h"

namespace scoop {

namespace {

// Fails any single streamed Read that takes longer than `deadline_us` —
// the "slow replica" detector of the fault model. A healthy in-memory
// read completes in microseconds, so only a genuinely stalled producer
// (e.g. an injected device latency) trips the budget; the failover layer
// above then resumes the stream from another replica.
class ReadDeadlineByteStream : public ByteStream {
 public:
  ReadDeadlineByteStream(std::shared_ptr<ByteStream> inner,
                         int64_t deadline_us)
      : inner_(std::move(inner)), deadline_us_(deadline_us) {}

  Result<size_t> Read(char* buf, size_t n) override {
    Stopwatch watch;
    Result<size_t> r = inner_->Read(buf, n);
    if (r.ok() && watch.ElapsedSeconds() * 1e6 > deadline_us_) {
      // The bytes arrived too late to count; the caller resumes them from
      // a healthier replica.
      return Status::DeadlineExceeded("replica read exceeded " +
                                      std::to_string(deadline_us_) + "us");
    }
    return r;
  }
  std::optional<uint64_t> SizeHint() const override {
    return inner_->SizeHint();
  }

 private:
  std::shared_ptr<ByteStream> inner_;
  const int64_t deadline_us_;
};

}  // namespace

// Resumes a raw object-body stream from the next replica when the current
// one fails mid-transfer (IO error, corrupt chunk, drop, read deadline).
// The resume request asks for "Range: bytes=<base+delivered>-<end>", so
// the client observes one seamless byte sequence. Only raw bodies (no
// X-Storlet-Executed) are resumable — filtered output offsets don't map
// back to object offsets, so storlet streams fail fast and the client's
// pushdown fallback ladder takes over instead.
class FailoverByteStream : public ByteStream {
 public:
  FailoverByteStream(std::shared_ptr<ByteStream> inner, ProxyServer* proxy,
                     Request request_template, std::string canonical_path,
                     std::vector<int> other_replicas, uint64_t base_offset,
                     uint64_t end_offset, Rng rng)
      : inner_(std::move(inner)),
        proxy_(proxy),
        request_(std::move(request_template)),
        canonical_path_(std::move(canonical_path)),
        other_replicas_(std::move(other_replicas)),
        base_offset_(base_offset),
        end_offset_(end_offset),
        rng_(rng) {}

  Result<size_t> Read(char* buf, size_t n) override {
    for (;;) {
      Result<size_t> r = inner_->Read(buf, n);
      if (r.ok()) {
        delivered_ += *r;
        return r;
      }
      // NotFound is authoritative (the object is gone, not the replica);
      // everything else is a replica fault worth failing over.
      if (r.status().IsNotFound()) return r;
      if (base_offset_ + delivered_ > end_offset_) {
        // Every window byte was already delivered; a producer error at the
        // EOF boundary loses nothing.
        return static_cast<size_t>(0);
      }
      SCOOP_RETURN_IF_ERROR(Resume(r.status()));
    }
  }

  std::optional<uint64_t> SizeHint() const override {
    return end_offset_ + 1 - base_offset_ - delivered_;
  }

 private:
  // Swaps inner_ for a range-resumed stream from the next untried replica;
  // returns `cause` once no replica can continue the byte sequence.
  Status Resume(const Status& cause) {
    uint64_t resume_abs = base_offset_ + delivered_;
    while (next_replica_ < other_replicas_.size()) {
      int device = other_replicas_[next_replica_++];
      ++attempt_;
      proxy_->CountRetry();
      proxy_->Backoff(attempt_, &rng_);
      Request retry = request_;
      retry.headers.Set(kRangeHeader,
                        StrFormat("bytes=%llu-%llu",
                                  static_cast<unsigned long long>(resume_abs),
                                  static_cast<unsigned long long>(end_offset_)));
      HttpResponse response = proxy_->SendToDevice(device, retry);
      if (!response.ok()) continue;
      // A resumed raw body must still be raw.
      if (response.headers.Has("X-Storlet-Executed")) continue;
      std::shared_ptr<ByteStream> stream = response.TakeBodyStream();
      if (proxy_->retry_policy().read_deadline_us > 0) {
        stream = std::make_shared<ReadDeadlineByteStream>(
            std::move(stream), proxy_->retry_policy().read_deadline_us);
      }
      inner_ = std::move(stream);
      proxy_->CountFailover(canonical_path_);
      return Status::OK();
    }
    return cause;
  }

  std::shared_ptr<ByteStream> inner_;
  ProxyServer* proxy_;
  Request request_;
  const std::string canonical_path_;
  const std::vector<int> other_replicas_;
  size_t next_replica_ = 0;
  const uint64_t base_offset_;
  const uint64_t end_offset_;  // inclusive absolute last byte of the window
  uint64_t delivered_ = 0;
  int attempt_ = 0;
  Rng rng_;
};

ProxyServer::ProxyServer(int proxy_id, const Ring* ring,
                         std::shared_ptr<ContainerRegistry> registry,
                         BackendFn backend, MetricRegistry* metrics,
                         ProxyRetryPolicy policy,
                         ReadRepairQueue* repair_queue)
    : proxy_id_(proxy_id),
      ring_(ring),
      registry_(std::move(registry)),
      backend_(std::move(backend)),
      metrics_(metrics),
      policy_(policy),
      repair_queue_(repair_queue) {
  if (metrics_ != nullptr) {
    // Cached so stream-context increments never touch the registry map.
    retries_counter_ = metrics_->GetCounter("proxy.retries");
    failovers_counter_ = metrics_->GetCounter("proxy.failovers");
  }
  pipeline_ = std::make_unique<Pipeline>(
      [this](Request& request) { return App(request); });
}

void ProxyServer::Backoff(int attempt, Rng* rng, int64_t floor_us) const {
  if (attempt <= 1) return;
  int64_t jittered = 0;
  if (policy_.backoff_base_us > 0) {
    int64_t backoff = policy_.backoff_base_us;
    for (int i = 2; i < attempt && backoff < policy_.backoff_max_us; ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, policy_.backoff_max_us);
    // Jitter in [backoff/2, backoff): decorrelates concurrent retriers
    // while staying deterministic for a given seed.
    jittered = backoff / 2 + rng->NextInt(0, backoff / 2);
  }
  // A backend's advertised Retry-After is the floor, not a suggestion —
  // but cap it so one extravagant hint cannot stall the read path past
  // its own attempt budget.
  constexpr int64_t kMaxFloorUs = 250'000;
  int64_t wait = std::max(jittered, std::min(floor_us, kMaxFloorUs));
  if (wait <= 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(wait));
}

void ProxyServer::CountRetry() {
  if (retries_counter_ != nullptr) retries_counter_->Increment();
}

void ProxyServer::CountFailover(const std::string& path) {
  if (failovers_counter_ != nullptr) failovers_counter_->Increment();
  if (repair_queue_ != nullptr) repair_queue_->Enqueue(path);
}

HttpResponse ProxyServer::Handle(Request& request) {
  struct InflightGuard {
    std::atomic<int64_t>* n;
    ~InflightGuard() { n->fetch_sub(1, std::memory_order_relaxed); }
  };
  inflight_.fetch_add(1, std::memory_order_relaxed);
  InflightGuard inflight_guard{&inflight_};
  // Child of the caller's context (Stocator / SwiftClient); roots a new
  // trace when the client did not stamp one.
  TraceSpan span("proxy.request", TraceContextFromHeaders(request.headers));
  if (span.active()) {
    span.SetTag("proxy", std::to_string(proxy_id_));
    span.SetTag("method", std::string(HttpMethodName(request.method)));
    span.SetTag("path", request.path);
    StampTraceContext(span.context(), &request.headers);
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter(StrFormat("proxy_%d.requests", proxy_id_))
        ->Increment();
  }
  Stopwatch watch;
  HttpResponse response = pipeline_->Handle(request);
  if (metrics_ != nullptr) {
    // Handler latency: time to the response head. A streamed body (the
    // pushdown pipeline) is drained later by the caller, so full-transfer
    // latency lives in stocator.read_us, not here (DESIGN.md §3f).
    int64_t us = static_cast<int64_t>(watch.ElapsedSeconds() * 1e6);
    if (request.method == HttpMethod::kGet) {
      metrics_->GetHistogram("proxy.get_us")->Record(us);
    } else if (request.method == HttpMethod::kPut) {
      metrics_->GetHistogram("proxy.put_us")->Record(us);
    }
  }
  if (span.active()) span.SetTag("status", std::to_string(response.status));
  if (metrics_ != nullptr) {
    Counter* bytes_out =
        metrics_->GetCounter(StrFormat("proxy_%d.bytes_out", proxy_id_));
    auto hint = response.BodySizeHint();
    if (hint) {
      bytes_out->Add(static_cast<int64_t>(*hint));
    } else {
      // Unknown size (a running pushdown pipeline): count on the way out.
      response.SetBodyStream(std::make_shared<CountingByteStream>(
                                 response.TakeBodyStream(), bytes_out),
                             response.trailers());
    }
  }
  return response;
}

HttpResponse ProxyServer::App(Request& request) {
  auto path = ObjectPath::Parse(request.path);
  if (!path.ok()) return HttpResponse::Make(400, path.status().ToString());
  if (path->IsObject()) return HandleObject(request, *path);
  if (path->IsContainer()) return HandleContainer(request, *path);
  return HandleAccount(request, *path);
}

HttpResponse ProxyServer::HandleAccount(Request& request,
                                        const ObjectPath& path) {
  switch (request.method) {
    case HttpMethod::kPut: {
      if (Status s = registry_->CreateAccount(path.account); !s.ok()) {
        return HttpResponse::Make(500, s.ToString());
      }
      return HttpResponse::Make(201);
    }
    case HttpMethod::kGet: {
      auto containers = registry_->ListContainers(path.account);
      if (!containers.ok()) return HttpResponse::Make(404);
      HttpResponse response = HttpResponse::Make(200);
      response.set_body(Join(*containers, "\n"));
      return response;
    }
    case HttpMethod::kHead:
      return registry_->AccountExists(path.account) ? HttpResponse::Make(204)
                                                    : HttpResponse::Make(404);
    default:
      return HttpResponse::Make(405);
  }
}

HttpResponse ProxyServer::HandleContainer(Request& request,
                                          const ObjectPath& path) {
  switch (request.method) {
    case HttpMethod::kPut: {
      Status s = registry_->CreateContainer(path.account, path.container);
      if (s.IsNotFound()) return HttpResponse::Make(404, s.ToString());
      return HttpResponse::Make(201);
    }
    case HttpMethod::kDelete: {
      Status s = registry_->DeleteContainer(path.account, path.container);
      if (s.IsNotFound()) return HttpResponse::Make(404, s.ToString());
      if (!s.ok()) return HttpResponse::Make(409, s.ToString());
      return HttpResponse::Make(204);
    }
    case HttpMethod::kGet: {
      std::string prefix = request.headers.GetOr("X-Prefix", "");
      auto objects = registry_->ListObjects(path.account, path.container,
                                            prefix);
      if (!objects.ok()) return HttpResponse::Make(404);
      HttpResponse response = HttpResponse::Make(200);
      // Listing format: "name size etag", one object per line.
      std::string listing;
      for (const ObjectInfo& info : *objects) {
        listing += StrFormat("%s %llu %s\n", info.name.c_str(),
                             static_cast<unsigned long long>(info.size),
                             info.etag.c_str());
      }
      response.set_body(std::move(listing));
      return response;
    }
    case HttpMethod::kHead:
      return registry_->ContainerExists(path.account, path.container)
                 ? HttpResponse::Make(204)
                 : HttpResponse::Make(404);
    default:
      return HttpResponse::Make(405);
  }
}

HttpResponse ProxyServer::SendToDevice(int device_id, Request& request) {
  // The deadline clock covers the whole hop, including any injected
  // network latency ahead of the backend call.
  Stopwatch watch;
  if (FailpointsArmed()) {
    // Chaos hook for the proxy -> object-server hop itself (network-ish
    // faults, as opposed to device faults behind the hop).
    Status fault =
        FailpointCheck("proxy.backend", "d" + std::to_string(device_id));
    if (!fault.ok()) {
      return HttpResponse::Make(fault.IsDeadlineExceeded() ? 504 : 503,
                                fault.ToString());
    }
    if (policy_.attempt_deadline_us > 0 &&
        watch.ElapsedSeconds() * 1e6 > policy_.attempt_deadline_us) {
      // The hop stalled (injected latency) past the attempt budget; give
      // up before even asking the backend.
      return HttpResponse::Make(504, "backend attempt exceeded deadline");
    }
  }
  request.headers.Set(kBackendDeviceHeader, std::to_string(device_id));
  HttpResponse response = backend_(device_id, request);
  if (policy_.attempt_deadline_us > 0 &&
      watch.ElapsedSeconds() * 1e6 > policy_.attempt_deadline_us) {
    // The reply arrived after the attempt deadline; a real proxy would
    // have given up already, so treat it as a gateway timeout.
    return HttpResponse::Make(504, "backend attempt exceeded deadline");
  }
  return response;
}

HttpResponse ProxyServer::ObjectRead(Request& request,
                                     const std::vector<int>& replicas) {
  // Deterministic per-request jitter stream: no shared state, no locks.
  Rng rng(Mix64(Fnv1a64(request.path)) ^
          (static_cast<uint64_t>(proxy_id_) << 32));
  // Parent for the per-attempt spans: the proxy.request span Handle()
  // stamped onto the request headers.
  TraceContext parent = TraceContextFromHeaders(request.headers);
  HttpResponse last = HttpResponse::Make(404);
  int attempt = 0;
  // Backoff floor advertised by the most recent 503 (Retry-After /
  // X-Scoop-Retry-After-Ms); consumed by the next attempt's backoff.
  int64_t retry_floor_us = 0;
  for (int sweep = 0; sweep < std::max(1, policy_.read_sweeps); ++sweep) {
    bool retryable_failure = false;
    for (size_t i = 0; i < replicas.size(); ++i) {
      ++attempt;
      if (attempt > 1) {
        CountRetry();
        Backoff(attempt, &rng, retry_floor_us);
        retry_floor_us = 0;
      }
      Request replica_request = request;
      // One span per replica attempt; a faulted run's trace shows every
      // retry, which fault it healed ("armed"), and where it landed.
      TraceSpan attempt_span("proxy.attempt", parent);
      if (attempt_span.active()) {
        attempt_span.SetTag("device", std::to_string(replicas[i]));
        attempt_span.SetTag("attempt", std::to_string(attempt));
        if (FailpointsArmed()) {
          attempt_span.SetTag("armed",
                              Join(Failpoints::Global().ArmedSites(), ","));
        }
        StampTraceContext(attempt_span.context(), &replica_request.headers);
      }
      HttpResponse r = SendToDevice(replicas[i], replica_request);
      if (attempt_span.active()) {
        attempt_span.SetTag("status", std::to_string(r.status));
      }
      if (!r.ok()) {
        if (r.status != 404) retryable_failure = true;
        if (r.status == 503) {
          if (auto floor_ms = RetryAfterMillis(r.headers)) {
            retry_floor_us = *floor_ms * 1000;
          }
        }
        last = std::move(r);
        continue;
      }
      if (attempt > 1) CountFailover(request.path);
      if (request.method != HttpMethod::kGet || !r.streamed() ||
          r.headers.Has("X-Storlet-Executed")) {
        return r;
      }
      // Wrap the raw body so a mid-stream replica fault resumes from the
      // replicas we have not consumed from yet.
      uint64_t base = 0;
      uint64_t length = r.BodySizeHint().value_or(0);
      if (r.status == 206) {
        auto header = r.headers.Get("Content-Range");
        if (header) {
          auto range = ContentRange::Parse(*header);
          if (range.ok()) base = range->first;
        }
      }
      if (length == 0) return r;  // empty body: nothing to resume
      std::vector<int> others;
      for (size_t j = 0; j < replicas.size(); ++j) {
        if (j != i) others.push_back(replicas[j]);
      }
      std::shared_ptr<ByteStream> stream = r.TakeBodyStream();
      if (policy_.read_deadline_us > 0) {
        stream = std::make_shared<ReadDeadlineByteStream>(
            std::move(stream), policy_.read_deadline_us);
      }
      r.SetBodyStream(std::make_shared<FailoverByteStream>(
                          std::move(stream), this, request, request.path,
                          std::move(others), base, base + length - 1, rng),
                      r.trailers());
      return r;
    }
    if (!retryable_failure) break;  // unanimous 404: the object is gone
  }
  return last;
}

HttpResponse ProxyServer::HandleObject(Request& request,
                                       const ObjectPath& path) {
  if (!registry_->ContainerExists(path.account, path.container)) {
    return HttpResponse::Make(404, "container does not exist");
  }
  const std::vector<int>& replicas = ring_->GetNodes(request.path);
  switch (request.method) {
    case HttpMethod::kPut: {
      // One timestamp for all replicas: last-write-wins convergence.
      request.headers.Set(kTimestampHeader,
                          std::to_string(timestamp_seq_.fetch_add(1)));
      // The object server moves the body out of the request it is given,
      // so the size is read first and only the last replica gets
      // `request` itself; the others get copies.
      const uint64_t body_size = request.body.size();
      int successes = 0;
      std::string etag;
      for (size_t i = 0; i < replicas.size(); ++i) {
        HttpResponse r;
        if (i + 1 < replicas.size()) {
          Request replica_request = request;
          r = SendToDevice(replicas[i], replica_request);
        } else {
          r = SendToDevice(replicas[i], request);
        }
        if (r.ok()) {
          ++successes;
          etag = r.headers.GetOr(kEtagHeader, etag);
        }
      }
      // Swift writes succeed on a majority quorum.
      if (successes * 2 <= static_cast<int>(replicas.size())) {
        return HttpResponse::Make(503, "write quorum not met");
      }
      if (successes < static_cast<int>(replicas.size()) &&
          repair_queue_ != nullptr) {
        // Quorum met but a replica missed the write: known-degraded, heal
        // on the next read-repair pass instead of waiting for a full scan.
        repair_queue_->Enqueue(request.path);
      }
      if (Status s = registry_->RecordObject(
              path.account, path.container,
              ObjectInfo{path.object, body_size, etag});
          !s.ok()) {
        // The container vanished between the existence check above and the
        // metadata write (concurrent container DELETE). The replicas hold
        // orphaned bytes, but the PUT must not claim success against a
        // container that no longer exists — Swift answers 404 here.
        return HttpResponse::Make(404, s.ToString());
      }
      HttpResponse response = HttpResponse::Make(201);
      response.headers.Set(kEtagHeader, etag);
      return response;
    }
    case HttpMethod::kGet:
    case HttpMethod::kHead:
      return ObjectRead(request, replicas);
    case HttpMethod::kDelete: {
      int successes = 0;
      for (int device : replicas) {
        Request replica_request = request;
        HttpResponse r = SendToDevice(device, replica_request);
        if (r.ok() || r.status == 404) ++successes;
      }
      if (successes == 0) return HttpResponse::Make(503, "delete failed");
      // A missing metadata row only means the object was never recorded or
      // a concurrent DELETE already erased it — the devices are clean
      // either way, so the DELETE still succeeded.
      registry_->RemoveObject(path.account, path.container, path.object)
          .IgnoreError();
      return HttpResponse::Make(204);
    }
    default:
      return HttpResponse::Make(405);
  }
}

}  // namespace scoop
