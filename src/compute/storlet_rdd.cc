#include "compute/storlet_rdd.h"

#include "storlets/headers.h"

namespace scoop {

Status StorletRdd::InvokeOn(
    const std::string& object, bool* executed_at_store,
    const std::function<Status(std::string_view)>& consume) {
  // Client edge: each per-object invocation roots its own trace, the
  // whole store-side tree for that object hangs below it.
  TraceSpan span("storletrdd.object");
  if (span.active()) {
    span.SetTag("object", object);
    span.SetTag("storlet", storlet_);
  }
  std::string path = "/" + client_->account() + "/" + container_ + "/" + object;
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
  *executed_at_store = response.headers.Has(kStorletExecutedHeader);
  // Drain the invocation's output incrementally; a filter failure after
  // the first chunk surfaces here as the stream's error.
  return response.TakeBodyStream()->DrainTo(consume);
}

Result<std::vector<StorletRdd::PartitionOutput>> StorletRdd::Collect() {
  SCOOP_ASSIGN_OR_RETURN(std::vector<ObjectInfo> objects,
                         client_->ListObjects(container_, prefix_));
  std::vector<PartitionOutput> outputs(objects.size());
  std::vector<Status> statuses(objects.size(), Status::OK());
  ParallelFor(*pool_, objects.size(), [&](size_t index) {
    PartitionOutput& out = outputs[index];
    out.object = objects[index].name;
    auto append = [&out](std::string_view chunk) {
      out.output.append(chunk);
      return Status::OK();
    };
    statuses[index] = InvokeOn(out.object, &out.executed_at_store, append);
  });
  for (const Status& status : statuses) SCOOP_RETURN_IF_ERROR(status);
  return outputs;
}

Result<std::string> StorletRdd::CollectConcatenated() {
  SCOOP_ASSIGN_OR_RETURN(std::vector<PartitionOutput> outputs, Collect());
  std::string out;
  for (PartitionOutput& output : outputs) out += output.output;
  return out;
}

Status StorletRdd::ForEachChunk(
    const std::function<Status(const std::string& object,
                               std::string_view chunk,
                               bool executed_at_store)>& consume) {
  SCOOP_ASSIGN_OR_RETURN(std::vector<ObjectInfo> objects,
                         client_->ListObjects(container_, prefix_));
  std::vector<Status> statuses(objects.size(), Status::OK());
  ParallelFor(*pool_, objects.size(), [&](size_t index) {
    const std::string& object = objects[index].name;
    bool executed = false;
    auto forward = [&](std::string_view chunk) {
      return consume(object, chunk, executed);
    };
    statuses[index] = InvokeOn(object, &executed, forward);
  });
  for (const Status& status : statuses) SCOOP_RETURN_IF_ERROR(status);
  return Status::OK();
}

}  // namespace scoop
