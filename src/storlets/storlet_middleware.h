// The storlet middleware: the bridge between the object store's
// pipelines and the storlet engine. Intercepts X-Run-Storlet requests at
// proxy or object stage, honours the policy's staging decision, performs
// record alignment for ranged GETs (the Hadoop text-input contract,
// executed at the store), and streams filter output back as the
// response body. Opens "middleware.get"/"middleware.align" trace spans
// and feeds middleware.get_us (DESIGN.md §3f, METRICS.md).
#ifndef SCOOP_STORLETS_STORLET_MIDDLEWARE_H_
#define SCOOP_STORLETS_STORLET_MIDDLEWARE_H_

#include <memory>
#include <string>

#include "objectstore/middleware.h"
#include "storlets/engine.h"

namespace scoop {

// The Storlet WSGI middleware. Installed on both proxy and object-server
// pipelines; the instance whose stage matches the resolved policy executes
// the request's pushdown filters on the data stream:
//
//  * GET — runs the filter pipeline over the response body, so each job
//    receives its own filtered version while the stored object remains
//    unaltered (paper §IV-B). Ranged GETs are first record-aligned
//    (Hadoop text-input contract) using local extension reads, which is
//    the byte-range capability §V-A added to Storlets.
//  * PUT — runs the pipeline over the request body before storage: the
//    ETL-on-upload path. Executed at the proxy stage, ahead of
//    replication, so every replica stores the transformed data.
//
// When the policy refuses the pipeline (pushdown disabled for the scope,
// or a storlet off its allow-list), a GET is served un-filtered and the
// client falls back to compute-side filtering; it can tell by the absence
// of the X-Storlet-Executed response header. A PUT is refused with 403
// instead: its transform cannot be skipped without changing what is
// stored.
class StorletMiddleware : public Middleware {
 public:
  StorletMiddleware(ExecutionStage stage, std::shared_ptr<StorletEngine> engine)
      : stage_(stage), engine_(std::move(engine)) {}

  std::string name() const override {
    return stage_ == ExecutionStage::kObjectNode ? "storlet@object"
                                                 : "storlet@proxy";
  }

  HttpResponse Process(Request& request, const HttpHandler& next) override;

 private:
  HttpResponse ProcessGet(Request& request, const HttpHandler& next,
                          const ObjectPath& path,
                          const std::vector<StorletInvocation>& invocations);
  HttpResponse ProcessPut(Request& request, const HttpHandler& next,
                          const ObjectPath& path,
                          const std::vector<StorletInvocation>& invocations);

  ExecutionStage stage_;
  std::shared_ptr<StorletEngine> engine_;
};

}  // namespace scoop

#endif  // SCOOP_STORLETS_STORLET_MIDDLEWARE_H_
