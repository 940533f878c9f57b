#include "compute/storlet_rdd.h"

#include "storlets/headers.h"

namespace scoop {

Status StorletRdd::InvokeOn(PartitionOutput* out) {
  // Client edge: each per-object invocation roots its own trace, the
  // whole store-side tree for that object hangs below it.
  TraceSpan span("storletrdd.object");
  if (span.active()) {
    span.SetTag("object", out->object);
    span.SetTag("storlet", storlet_);
  }
  std::string path =
      "/" + client_->account() + "/" + container_ + "/" + out->object;
  Request request = Request::Get(path);
  request.headers.Set(kRunStorletHeader, storlet_);
  for (const auto& [key, value] : params_) {
    request.headers.Set(std::string(kStorletParamPrefix) + key, value);
  }
  StampTraceContext(span.context(), &request.headers);
  HttpResponse response = client_->Send(std::move(request));
  if (!response.ok()) {
    return Status::Internal("storlet GET -> " +
                            std::to_string(response.status) + " " +
                            response.body());
  }
  // When the store declined (policy off), the body is the raw object.
  out->executed_at_store = response.headers.Has(kStorletExecutedHeader);
  // A filter failure after the first chunk surfaces here as the stream's
  // error.
  SCOOP_ASSIGN_OR_RETURN(out->output, response.TakeBodyStream()->ReadAll());
  return Status::OK();
}

Result<std::vector<StorletRdd::PartitionOutput>> StorletRdd::Collect() {
  SCOOP_ASSIGN_OR_RETURN(std::vector<ObjectInfo> objects,
                         client_->ListObjects(container_, prefix_));
  std::vector<PartitionOutput> outputs(objects.size());
  std::vector<Status> statuses(objects.size(), Status::OK());
  ParallelFor(*pool_, objects.size(), [&](size_t index) {
    outputs[index].object = objects[index].name;
    statuses[index] = InvokeOn(&outputs[index]);
  });
  for (const Status& status : statuses) SCOOP_RETURN_IF_ERROR(status);
  return outputs;
}

}  // namespace scoop
