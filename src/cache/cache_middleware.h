// Proxy-pipeline middleware gluing the result cache and singleflight
// coalescing into the request path. Installed on every proxy between the
// auth middleware and the proxy-stage storlet middleware:
//
//  * GET + X-Run-Storlet on an object: resolve the object's current ETag
//    from the container registry, derive the canonical query fingerprint
//    from the pushdown headers, and look up (path, ETag, fingerprint).
//    Hits are served zero-copy from memory (X-Scoop-Cache: hit). Misses
//    join the singleflight latch: the leader executes the normal pushdown
//    path and fills its streamed result into the cache at EOF; concurrent
//    identical requests wait for that fill and are served from it
//    (X-Scoop-Cache: coalesced), or run the request themselves when the
//    leader filled nothing.
//  * PUT/DELETE on an object: after a successful downstream response, all
//    cached results for that path are dropped. (The ETag in the key makes
//    overwrite invalidation airtight even without this hook; the explicit
//    drop just returns the bytes immediately.)
//
// Failure semantics: the "cache.lookup" failpoint degrades the request to
// the plain uncached path byte-identically; the "cache.fill" failpoint
// drops the fill (a poisoned fill is never served). Only responses that
// actually executed a storlet (X-Storlet-Executed) and completed cleanly
// are inserted. Spans: cache.lookup / cache.fill under proxy.request.
#ifndef SCOOP_CACHE_CACHE_MIDDLEWARE_H_
#define SCOOP_CACHE_CACHE_MIDDLEWARE_H_

#include <memory>
#include <string>

#include "cache/result_cache.h"
#include "cache/singleflight.h"
#include "common/metrics.h"
#include "objectstore/container_registry.h"
#include "objectstore/middleware.h"

namespace scoop {

// Response header marking how the cache layer served a GET: "hit"
// (served from cache) or "coalesced" (served from the fill of a
// concurrent identical execution). Absent on the uncached path.
inline constexpr char kCacheStatusHeader[] = "X-Scoop-Cache";

// Canonical fingerprint of the pushdown query a GET carries: the sorted
// (lowercased-name, value) pairs of every header that shapes the result
// bytes — Range, X-Run-Storlet, X-Storlet-Run-On, X-Storlet-Range-Records
// and all storlet parameter headers. Requests that produce identical
// response bytes produce identical fingerprints.
std::string CanonicalQueryFingerprint(const Headers& headers);

class ResultCacheMiddleware : public Middleware {
 public:
  ResultCacheMiddleware(std::shared_ptr<ResultCache> cache,
                        std::shared_ptr<Singleflight> flights,
                        ContainerRegistry* registry, MetricRegistry* metrics);

  std::string name() const override { return "result_cache"; }

  HttpResponse Process(Request& request, const HttpHandler& next) override;

 private:
  HttpResponse ProcessGet(Request& request, const HttpHandler& next,
                          const ObjectPath& path);
  HttpResponse ServeHit(CachedResult result, const char* how);
  HttpResponse LeadAndFill(Request& request, const HttpHandler& next,
                           const std::string& key,
                           const std::string& object_path,
                           std::unique_ptr<Singleflight::Lead> lead,
                           const TraceContext& parent);

  std::shared_ptr<ResultCache> cache_;
  std::shared_ptr<Singleflight> flights_;
  ContainerRegistry* registry_;
  MetricRegistry* metrics_;
  Counter* fills_;
  Counter* drops_;
};

}  // namespace scoop

#endif  // SCOOP_CACHE_CACHE_MIDDLEWARE_H_
