#include "datasource/stocator.h"

#include "common/strings.h"
#include "csv/agg_storlet.h"
#include "csv/csv_storlet.h"
#include "objectstore/object_server.h"
#include "storlets/compress_storlet.h"
#include "storlets/headers.h"

namespace scoop {

namespace {
Request RangedGet(const std::string& account, const std::string& container,
                  const std::string& object, uint64_t first, uint64_t last) {
  Request request = Request::Get("/" + account + "/" + container + "/" +
                                 object);
  request.headers.Set(kRangeHeader,
                      StrFormat("bytes=%llu-%llu",
                                static_cast<unsigned long long>(first),
                                static_cast<unsigned long long>(last)));
  return request;
}
}  // namespace

Result<Stocator::ReadResult> Stocator::ReadPartition(
    const Partition& partition, const PushdownTask* task) {
  ReadResult result;
  SCOOP_ASSIGN_OR_RETURN(
      ReadStats stats,
      ReadPartitionInto(
          partition, task,
          [&](std::string_view chunk) {
            result.data.append(chunk);
            return Status::OK();
          },
          // Buffered reads can always restart: drop the partial data.
          [&] {
            result.data.clear();
            return Status::OK();
          }));
  result.pushdown_executed = stats.pushdown_executed;
  result.limit_hit = stats.limit_hit;
  result.bytes_transferred = stats.bytes_transferred;
  result.requests = stats.requests;
  return result;
}

Result<Stocator::ReadStats> Stocator::Fallback(
    const Partition& partition,
    const std::function<Status(std::string_view)>& consume,
    const std::function<Status()>& restart, const TraceContext& parent) {
  if (restart) SCOOP_RETURN_IF_ERROR(restart());
  if (fallbacks_counter_ != nullptr) fallbacks_counter_->Increment();
  SCOOP_ASSIGN_OR_RETURN(ReadStats stats,
                         ReadAlignedInto(partition, consume, parent));
  ++stats.requests;
  return stats;
}

Result<Stocator::ReadStats> Stocator::ReadPartitionInto(
    const Partition& partition, const PushdownTask* task,
    const std::function<Status(std::string_view)>& consume,
    const std::function<Status()>& restart) {
  // The client edge of the trace: no inbound context, so this span roots
  // the trace every store-side hop of this partition read attaches to.
  TraceSpan span("stocator.read_partition");
  if (span.active()) {
    span.SetTag("container", partition.container);
    span.SetTag("object", partition.object);
    span.SetTag("range", StrFormat("%llu-%llu",
                                   static_cast<unsigned long long>(
                                       partition.first),
                                   static_cast<unsigned long long>(
                                       partition.last)));
  }
  Stopwatch watch;
  Result<ReadStats> result =
      ReadPartitionIntoTraced(partition, task, consume, restart,
                              span.context());
  if (metrics_ != nullptr) {
    // Full-drain latency: request issue through last consumed chunk —
    // the per-partition ingest time of the paper's figures. Compare
    // proxy.get_us, which stops at the response head.
    metrics_->GetHistogram("stocator.read_us")
        ->Record(static_cast<int64_t>(watch.ElapsedSeconds() * 1e6));
    if (result.ok() && result->pushdown_executed) {
      // Link bytes the pushdown avoided: partition window minus what
      // actually crossed. Negative (filter kept ~everything plus headers)
      // clamps to zero.
      int64_t window =
          static_cast<int64_t>(partition.last + 1 - partition.first);
      int64_t saved =
          window - static_cast<int64_t>(result->bytes_transferred);
      metrics_->GetHistogram("pushdown.bytes_saved")
          ->Record(saved > 0 ? saved : 0);
    }
  }
  if (span.active() && result.ok()) {
    span.SetTag("pushdown",
                result->pushdown_executed ? "executed" : "declined");
    span.SetTag("bytes_transferred",
                std::to_string(result->bytes_transferred));
  }
  return result;
}

Result<Stocator::ReadStats> Stocator::ReadPartitionIntoTraced(
    const Partition& partition, const PushdownTask* task,
    const std::function<Status(std::string_view)>& consume,
    const std::function<Status()>& restart, const TraceContext& parent) {
  if (task == nullptr) return ReadAlignedInto(partition, consume, parent);

  Headers headers;
  const bool agg = task->aggregate != nullptr;
  if (agg) {
    // Aggregation pushdown: the GroupAggStorlet folds the partition into
    // per-group partial AggStates and ships back one SAG1 frame instead
    // of filtered rows. Compression is pointless at that size.
    headers.Set(kRunStorletHeader, GroupAggStorlet::kName);
    headers.Set(std::string(kStorletParamPrefix) + "Output", "partials");
    if (!task->aggregate->group_specs.empty()) {
      headers.Set(std::string(kStorletParamPrefix) + "Group",
                  task->aggregate->GroupParam());
    }
    headers.Set(std::string(kStorletParamPrefix) + "Aggs",
                task->aggregate->AggsParam());
  } else {
    headers.Set(kRunStorletHeader, task->compress_transfer
                                       ? std::string(CsvStorlet::kName) +
                                             ",compress"
                                       : CsvStorlet::kName);
    if (!task->projection.empty()) {
      headers.Set(std::string(kStorletParamPrefix) + "Projection",
                  Join(task->projection, ","));
    }
    if (task->limit >= 0) {
      headers.Set(std::string(kStorletParamPrefix) + "Limit",
                  std::to_string(task->limit));
    }
  }
  headers.Set(kStorletRangeRecordsHeader, "true");
  headers.Set(std::string(kStorletParamPrefix) + "Schema",
              task->schema.ToSpec());
  if (!task->selection.IsTrue()) {
    headers.Set(std::string(kStorletParamPrefix) + "Selection",
                task->selection.Serialize());
  }

  Request request = Request::Get("/" + client_->account() + "/" +
                                 partition.container + "/" + partition.object);
  bool whole_object =
      partition.first == 0 && partition.last + 1 >= partition.object_size;
  if (!whole_object) {
    headers.Set(kRangeHeader,
                StrFormat("bytes=%llu-%llu",
                          static_cast<unsigned long long>(partition.first),
                          static_cast<unsigned long long>(partition.last)));
  }
  for (const auto& [name, value] : headers) request.headers.Set(name, value);
  StampTraceContext(parent, &request.headers);

  HttpResponse response = client_->Send(std::move(request));
  if (response.status == 404) {
    return Status::NotFound("no object " + partition.object);
  }
  if (!response.ok()) {
    // The storlet invocation failed at the store (engine fault, storlet
    // crash before the first byte, middleware error). The object itself
    // may be perfectly healthy — degrade to a plain client-side read
    // rather than failing the task (§IV).
    return Fallback(partition, consume, /*restart=*/nullptr, parent);
  }
  if (!response.headers.Has(kStorletExecutedHeader)) {
    // The store declined (admin policy, or a QoS degrade): what we would
    // receive is the raw byte range, not record-aligned. Redo the read
    // the traditional way; the declined GET was still sent.
    return Fallback(partition, consume, /*restart=*/nullptr, parent);
  }

  ReadStats stats;
  stats.pushdown_executed = true;
  // Success accounting shared by the buffered and streaming arms: the
  // limit-hit trailer the storlet published at EOF, plus the pushdown
  // mode counters.
  auto finish = [&] {
    std::shared_ptr<const Headers> trailers = response.trailers();
    if (trailers != nullptr && trailers->Has("X-Object-Meta-Limit-Hit")) {
      stats.limit_hit = true;
      if (metrics_ != nullptr) {
        metrics_->GetCounter("pushdown.limit_short_circuits")->Increment();
      }
    }
    if (agg) {
      // Leaf marker span: this read's response was a SAG1 frame of
      // partial aggregate states. The GET itself was stamped with
      // `parent`, so the store-side tree still hangs off
      // stocator.read_partition — this span only records the mode.
      TraceSpan agg_span("pushdown.partial_agg", parent);
      if (agg_span.active()) {
        agg_span.SetTag("aggs", task->aggregate->AggsParam());
        agg_span.SetTag("bytes_transferred",
                        std::to_string(stats.bytes_transferred));
      }
      if (metrics_ != nullptr) {
        metrics_->GetCounter("pushdown.partial_aggs")->Increment();
      }
    }
  };

  if (!agg && task->compress_transfer) {
    // A compressed frame decodes as a unit; this path trades the memory
    // bound for link bytes by design.
    Result<std::string> frame = response.TakeBodyStream()->ReadAll();
    if (!frame.ok()) {
      // Stream died before anything was consumed: safe to degrade.
      return Fallback(partition, consume, /*restart=*/nullptr, parent);
    }
    stats.bytes_transferred = frame->size();
    SCOOP_ASSIGN_OR_RETURN(std::string decoded, DecodeCompressedFrame(*frame));
    SCOOP_RETURN_IF_ERROR(consume(decoded));
    finish();
    return stats;
  }
  // Filtered rows flow straight from the storlet pipeline to the caller,
  // one chunk at a time.
  bool consume_failed = false;
  Status drained = response.TakeBodyStream()->DrainTo(
      [&](std::string_view chunk) {
        stats.bytes_transferred += chunk.size();
        Status s = consume(chunk);
        if (!s.ok()) consume_failed = true;
        return s;
      });
  if (!drained.ok() && !consume_failed) {
    // The storlet pipeline died mid-stream (crash, dropped queue). Rows
    // already delivered are filtered output that cannot be stitched onto
    // a raw re-read — only a consumer that can restart from scratch may
    // degrade; otherwise the failure propagates.
    if (restart) {
      return Fallback(partition, consume, restart, parent);
    }
    return drained;
  }
  SCOOP_RETURN_IF_ERROR(drained);
  finish();
  return stats;
}

Result<Stocator::ReadStats> Stocator::ReadAlignedInto(
    const Partition& partition,
    const std::function<Status(std::string_view)>& consume,
    const TraceContext& parent) {
  TraceSpan span("stocator.read_aligned", parent);
  // Hadoop text-input contract, executed client-side: a split that starts
  // mid-object is fetched from first-1, and RecordAlignedStream skips its
  // partial first record and completes its last one with extension GETs.
  // The range streams through chunk by chunk.
  uint64_t start = partition.first > 0 ? partition.first - 1 : 0;
  Request ranged = RangedGet(client_->account(), partition.container,
                             partition.object, start, partition.last);
  StampTraceContext(span.context(), &ranged.headers);
  HttpResponse response = client_->Send(std::move(ranged));
  if (response.status == 404) {
    return Status::NotFound("no object " + partition.object);
  }
  if (response.status == 416) return Status::OutOfRange(response.body());
  if (!response.ok()) {
    return Status::Internal("object GET -> " +
                            std::to_string(response.status) + " " +
                            response.body());
  }

  // Every GET and every byte received counts, the skipped prefix and the
  // unused tail of each extension included.
  ReadStats stats;
  Counter body_bytes;
  auto body = std::make_shared<CountingByteStream>(response.TakeBodyStream(),
                                                   &body_bytes);
  auto fetch = [&](uint64_t first, uint64_t last) -> Result<std::string> {
    Result<std::string> extension = client_->GetObjectRange(
        partition.container, partition.object, first, last);
    if (extension.ok()) {
      ++stats.requests;
      stats.bytes_transferred += extension->size();
    }
    return extension;
  };
  RecordAlignedStream aligned(body, partition.first > 0, partition.last + 1,
                              partition.object_size, fetch);
  SCOOP_RETURN_IF_ERROR(aligned.DrainTo(consume));
  stats.bytes_transferred += static_cast<uint64_t>(body_bytes.value());
  return stats;
}

Status Stocator::PutObject(const std::string& container,
                           const std::string& object, std::string data,
                           const StorletParams* etl_params) {
  Headers headers;
  if (etl_params != nullptr) {
    headers.Set(kRunStorletHeader, "etlstorlet");
    for (const auto& [key, value] : *etl_params) {
      headers.Set(std::string(kStorletParamPrefix) + key, value);
    }
  }
  return client_->PutObject(container, object, std::move(data), headers);
}

}  // namespace scoop
