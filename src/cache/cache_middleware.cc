#include "cache/cache_middleware.h"

#include <functional>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "common/trace.h"
#include "storlets/headers.h"

namespace scoop {

std::string CanonicalQueryFingerprint(const Headers& headers) {
  // v2 leads with the response *shape*: a pushdown body is either row
  // bytes or a SAG1 partial-aggregate frame, and the two must never
  // share a cache entry — a row-shape query handed a cached SAG1 body
  // (or vice versa) would decode garbage. The explicit token keeps the
  // shapes apart even if the remaining header serialization ever
  // collides across storlets.
  bool agg_shape =
      ToLower(Trim(headers.GetOr(std::string(kStorletParamPrefix) + "Output",
                                 ""))) == "partials";
  std::string fp = agg_shape ? "v2|shape=agg" : "v2|shape=rows";
  // Headers iterates in case-insensitive sorted order, so equal header
  // sets serialize identically regardless of arrival order or name case.
  for (const auto& [name, value] : headers) {
    std::string lower = ToLower(name);
    bool relevant = lower == "range" || StartsWith(lower, "x-run-storlet") ||
                    StartsWith(lower, "x-storlet-");
    if (!relevant) continue;
    fp.push_back('|');
    fp.append(lower);
    fp.push_back('=');
    fp.append(value);
  }
  return fp;
}

ResultCacheMiddleware::ResultCacheMiddleware(
    std::shared_ptr<ResultCache> cache, std::shared_ptr<Singleflight> flights,
    ContainerRegistry* registry, MetricRegistry* metrics)
    : cache_(std::move(cache)),
      flights_(std::move(flights)),
      registry_(registry),
      metrics_(metrics),
      fills_(metrics->GetCounter("cache.fills")),
      drops_(metrics->GetCounter("cache.drops")) {}

HttpResponse ResultCacheMiddleware::Process(Request& request,
                                            const HttpHandler& next) {
  Result<ObjectPath> parsed = ObjectPath::Parse(request.path);
  if (!parsed.ok() || !parsed->IsObject()) return next(request);
  switch (request.method) {
    case HttpMethod::kGet:
      return ProcessGet(request, next, *parsed);
    case HttpMethod::kPut:
    case HttpMethod::kPost:
    case HttpMethod::kDelete: {
      HttpResponse response = next(request);
      // Runs even when the cache is disabled, so entries cached before a
      // runtime disable cannot go stale for a later re-enable. The ETag
      // key already makes overwrites invalidate naturally; this returns
      // the bytes immediately.
      if (response.ok()) cache_->InvalidateObject(parsed->ToString());
      return response;
    }
    default:
      return next(request);
  }
}

HttpResponse ResultCacheMiddleware::ProcessGet(Request& request,
                                               const HttpHandler& next,
                                               const ObjectPath& path) {
  if (!cache_->enabled()) return next(request);
  // Only pushdown results are worth caching: a plain GET is already a
  // zero-CPU read at the store, and the proxy would double the cluster's
  // memory footprint caching raw objects.
  if (!request.headers.Has(kRunStorletHeader)) return next(request);
  const std::string object_path = path.ToString();
  // A faulted cache degrades to the uncached path, byte-identically.
  if (!FailpointCheck("cache.lookup", object_path).ok()) return next(request);
  Result<ObjectInfo> info =
      registry_->GetObjectInfo(path.account, path.container, path.object);
  if (!info.ok()) return next(request);

  const std::string key = ResultCache::MakeKey(
      object_path, info->etag, CanonicalQueryFingerprint(request.headers));
  const TraceContext parent = TraceContextFromHeaders(request.headers);

  std::optional<CachedResult> hit;
  const char* how = "hit";
  std::unique_ptr<Singleflight::Lead> lead;
  {
    TraceSpan span("cache.lookup", parent);
    hit = cache_->Lookup(key);
    if (!hit) {
      // A caller that finds the key led blocks here until the leader has
      // filled its result or failed; that wait *is* the lookup finding
      // an in-flight identical execution. A caller that leads reads too:
      // a leader that released between its miss and its Join has filled.
      lead = flights_->Join(key);
      hit = cache_->LookupCoalesced(key);
      if (hit) {
        how = "coalesced";
        lead.reset();
      }
    }
    span.SetTag("outcome", hit ? how : lead ? "miss" : "bypass");
  }
  if (hit) return ServeHit(std::move(*hit), how);
  // The leader filled nothing: run the request uncoalesced.
  if (!lead) return next(request);
  return LeadAndFill(request, next, key, object_path, std::move(lead),
                     parent);
}

HttpResponse ResultCacheMiddleware::ServeHit(CachedResult result,
                                             const char* how) {
  HttpResponse response;
  response.status = result.status;
  response.headers = result.headers;
  response.headers.Set(kCacheStatusHeader, how);
  response.headers.Set("Content-Length", std::to_string(result.body->size()));
  response.SetBodyStream(
      std::make_shared<SharedBufferByteStream>(result.body, *result.body));
  return response;
}

namespace {

// The leader's response body: passes every chunk through and copies it,
// up to `max_bytes`, for the fill. A clean EOF fills and only then
// releases the lead, so the waiters find the entry. An error, a dropped
// stream or a body over `max_bytes` releases the lead with nothing
// filled, and the waiters run the request themselves.
class FillStream : public ByteStream {
 public:
  using FillFn = std::function<void(std::string body)>;

  FillStream(std::shared_ptr<ByteStream> inner,
             std::unique_ptr<Singleflight::Lead> lead, size_t max_bytes,
             FillFn fill, Counter* drops)
      : inner_(std::move(inner)),
        lead_(std::move(lead)),
        max_bytes_(max_bytes),
        fill_(std::move(fill)),
        drops_(drops) {}

  Result<size_t> Read(char* buf, size_t n) override {
    Result<size_t> r = inner_->Read(buf, n);
    if (!lead_) return r;
    if (!r.ok()) {
      lead_.reset();
    } else if (*r == 0) {
      fill_(std::move(body_));
      lead_.reset();
    } else if (body_.size() + *r > max_bytes_) {
      drops_->Increment();
      std::string().swap(body_);
      lead_.reset();
    } else {
      body_.append(buf, *r);
    }
    return r;
  }

  std::optional<uint64_t> SizeHint() const override {
    return inner_->SizeHint();
  }

 private:
  std::shared_ptr<ByteStream> inner_;
  // Null once the lead is released: filled, failed or oversized.
  std::unique_ptr<Singleflight::Lead> lead_;
  const size_t max_bytes_;
  FillFn fill_;
  Counter* drops_;
  std::string body_;
};

}  // namespace

HttpResponse ResultCacheMiddleware::LeadAndFill(
    Request& request, const HttpHandler& next, const std::string& key,
    const std::string& object_path, std::unique_ptr<Singleflight::Lead> lead,
    const TraceContext& parent) {
  HttpResponse response = next(request);
  // Only results a storlet actually produced are cached: a declined
  // pushdown (raw bytes) is not worth proxy memory. An uncacheable
  // response releases the lead now, so the waiters run the request
  // without waiting for this one's drain.
  if (!response.ok() || !response.headers.Has(kStorletExecutedHeader)) {
    return response;
  }
  if (!FailpointCheck("cache.fill", object_path).ok()) {
    drops_->Increment();
    return response;
  }
  std::shared_ptr<const Headers> trailers = response.trailers();
  // The fill runs at EOF, when the producer has published its trailers;
  // the entry holds the headers with trailers merged, exactly what the
  // uncached path materializes.
  auto fill = [cache = cache_, fills = fills_, drops = drops_,
               status = response.status, headers = response.headers, trailers,
               key, object_path, parent](std::string body) {
    TraceSpan span("cache.fill", parent);
    span.SetTag("bytes", std::to_string(body.size()));
    CachedResult entry;
    entry.status = status;
    entry.headers = headers;
    if (trailers) {
      for (const auto& [name, value] : *trailers) {
        entry.headers.Set(name, value);
      }
    }
    entry.body = std::make_shared<const std::string>(std::move(body));
    if (cache->Insert(key, object_path, std::move(entry))) {
      fills->Increment();
    } else {
      span.SetTag("dropped", "true");
      drops->Increment();
    }
  };
  response.SetBodyStream(
      std::make_shared<FillStream>(response.TakeBodyStream(), std::move(lead),
                                   cache_->max_entry_bytes(), std::move(fill),
                                   drops_),
      trailers);
  return response;
}

}  // namespace scoop
