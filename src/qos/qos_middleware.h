// Proxy middleware applying the QoS admission ladder (DESIGN.md §3k).
// Sits between auth (which stamps the authenticated tier) and the result
// cache, so throttled requests never consume cache or storlet resources.
#ifndef SCOOP_QOS_QOS_MIDDLEWARE_H_
#define SCOOP_QOS_QOS_MIDDLEWARE_H_

#include <memory>
#include <string>

#include "objectstore/middleware.h"
#include "qos/qos.h"

namespace scoop {
namespace qos {

// Per-request admission: token-bucket check keyed by the account in the
// (auth-validated) path, the degrade rung (bucket short of the pushdown
// price, deadline predicted missed, or a bronze tenant while the storlet
// queue is overloaded — §VII), and the 503 + Retry-After shed rung.
class QosMiddleware : public Middleware {
 public:
  explicit QosMiddleware(std::shared_ptr<QosController> controller)
      : controller_(std::move(controller)) {}

  std::string name() const override { return "qos"; }
  HttpResponse Process(Request& request, const HttpHandler& next) override;

 private:
  std::shared_ptr<QosController> controller_;
};

}  // namespace qos
}  // namespace scoop

#endif  // SCOOP_QOS_QOS_MIDDLEWARE_H_
