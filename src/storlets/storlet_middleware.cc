#include "storlets/storlet_middleware.h"

#include <limits>

#include "common/failpoint.h"
#include "common/strings.h"
#include "objectstore/object_server.h"
#include "storlets/headers.h"

namespace scoop {

namespace {

// Wraps a ranged GET's raw body in the shared record-alignment stream.
// Extension reads go through `next` as copies of `request` without the
// storlet headers. The "middleware.align" span is owned by the fetch, so
// it lives as long as the stream: alignment is lazy, and the span ends
// once the consumer has drained (or dropped) the stream.
std::shared_ptr<ByteStream> AlignRecords(std::shared_ptr<ByteStream> body,
                                         bool skip_first,
                                         const ContentRange& range,
                                         Request request, HttpHandler next) {
  auto span = std::make_shared<TraceSpan>(
      "middleware.align", TraceContextFromHeaders(request.headers));
  if (span->active()) {
    span->SetTag("skip_first", skip_first ? "true" : "false");
  }
  request.headers.Remove(kRunStorletHeader);
  request.headers.Remove(kStorletRangeRecordsHeader);
  auto fetch = [span, request = std::move(request), next = std::move(next)](
                   uint64_t first, uint64_t last) -> Result<std::string> {
    Request extension = request;
    std::string range = std::to_string(first) + "-" + std::to_string(last);
    extension.headers.Set(kRangeHeader, "bytes=" + range);
    HttpResponse response = next(extension);
    // Drain before the ok() check: a mid-stream read fault only flips the
    // response to a 500 on materialization, and checking first would let
    // the error text (or a truncated prefix) masquerade as record bytes —
    // silently clipping the trailing record instead of failing the run so
    // the client's fallback ladder can take over.
    response.Materialize();
    if (!response.ok()) {
      return Status::Internal("record-alignment extension read failed: " +
                              std::to_string(response.status));
    }
    return response.TakeBody();
  };
  uint64_t body_end = range.last + 1;
  return std::make_shared<RecordAlignedStream>(
      std::move(body), skip_first, body_end, range.total, std::move(fetch));
}

}  // namespace

HttpResponse StorletMiddleware::Process(Request& request,
                                        const HttpHandler& next) {
  if (!request.headers.Has(kRunStorletHeader)) return next(request);
  auto path = ObjectPath::Parse(request.path);
  if (!path.ok() || !path->IsObject()) return next(request);

  auto invocations = StorletEngine::ParseInvocations(request.headers);
  if (!invocations.ok()) {
    return HttpResponse::Make(400, invocations.status().ToString());
  }
  if (invocations->empty()) return next(request);

  switch (request.method) {
    case HttpMethod::kGet: {
      StorletPolicy policy =
          engine_->policies().Resolve(path->account, path->container);
      if (!policy.pushdown_enabled) {
        // Pushdown disabled for this scope: serve the raw data; the client
        // detects the missing X-Storlet-Executed header and filters
        // locally.
        return next(request);
      }
      // GET filters run at the stage the policy selects; a request-level
      // override (X-Storlet-Run-On) may force the proxy stage.
      ExecutionStage effective = policy.stage;
      auto run_on = request.headers.Get(kStorletRunOnHeader);
      if (run_on) {
        effective = (ToLower(*run_on) == "proxy") ? ExecutionStage::kProxy
                                                  : ExecutionStage::kObjectNode;
      }
      if (effective != stage_) return next(request);
      // The middleware's span parents everything below it: the raw read
      // (and so the proxy's per-attempt spans at proxy stage), the lazy
      // record-alignment stream, and every storlet stage thread.
      TraceSpan span("middleware.get",
                     TraceContextFromHeaders(request.headers));
      if (span.active()) {
        span.SetTag("stage", stage_ == ExecutionStage::kObjectNode
                                 ? "object"
                                 : "proxy");
        span.SetTag("storlets",
                    request.headers.GetOr(kRunStorletHeader, ""));
        StampTraceContext(span.context(), &request.headers);
      }
      Stopwatch watch;
      HttpResponse response = ProcessGet(request, next, *path, *invocations);
      if (engine_->metrics() != nullptr) {
        // Time to the response head (first pipeline chunk included); the
        // tail of the filtered stream drains under the caller's clock.
        engine_->metrics()
            ->GetHistogram("middleware.get_us")
            ->Record(static_cast<int64_t>(watch.ElapsedSeconds() * 1e6));
      }
      if (span.active()) {
        span.SetTag("status", std::to_string(response.status));
      }
      return response;
    }
    case HttpMethod::kPut:
      // ETL transforms run once, before replication — the proxy stage.
      if (stage_ != ExecutionStage::kProxy) return next(request);
      return ProcessPut(request, next, *path, *invocations);
    default:
      return next(request);
  }
}

HttpResponse StorletMiddleware::ProcessGet(
    Request& request, const HttpHandler& next, const ObjectPath& path,
    const std::vector<StorletInvocation>& invocations) {
  // Chaos hook: a middleware failure here turns into a 500 the client's
  // pushdown fallback ladder must absorb (degrade to a plain GET, §IV).
  Status fault = FailpointCheck("middleware.get");
  if (!fault.ok()) return HttpResponse::Make(500, fault.ToString());
  bool align = ToLower(request.headers.GetOr(kStorletRangeRecordsHeader,
                                             "")) == "true";
  bool skip_first_record = false;
  auto range_header = request.headers.Get(kRangeHeader);
  if (align && range_header) {
    // Hadoop text-input contract: a split with first > 0 starts reading at
    // first-1 and discards everything through the first newline, so a
    // record beginning exactly at `first` is kept, while a record begun in
    // the previous split is dropped (it is read there via tail extension).
    // A suffix range cannot be aligned: its start is unknown until the
    // object size is.
    if (StartsWith(*range_header, "bytes=-")) {
      return HttpResponse::Make(400, "a suffix Range cannot be aligned");
    }
    // The object size is unknown here: parse against an unbounded object.
    // Any other malformed value passes through for the object server to
    // refuse.
    constexpr uint64_t kUnbounded = std::numeric_limits<int64_t>::max();
    auto range = ByteRange::Parse(*range_header, kUnbounded);
    if (range.ok() && range->first > 0) {
      skip_first_record = true;
      // Shift the start, keep "-last" (or the open "-") as sent.
      std::string start = "bytes=" + std::to_string(range->first - 1);
      std::string tail = range_header->substr(range_header->find('-'));
      request.headers.Set(kRangeHeader, start + tail);
    }
  }

  HttpResponse response = next(request);
  if (!response.ok()) return response;
  if (response.headers.Has(kStorletExecutedHeader)) return response;

  // From here on the body travels as a stream: the raw range, lazily
  // record-aligned, feeding the pipelined storlet stages.
  std::shared_ptr<ByteStream> source = response.TakeBodyStream();
  if (align && response.status == 206) {
    auto header = response.headers.Get("Content-Range");
    if (header) {
      auto range = ContentRange::Parse(*header);
      if (!range.ok()) {
        return HttpResponse::Make(500, range.status().ToString());
      }
      source = AlignRecords(std::move(source), skip_first_record, *range,
                            request, next);
      // Alignment changes the length by an amount only known at EOF.
      response.headers.Remove(kContentLengthHeader);
    }
  }

  auto pipeline = engine_->RunPipelineStreaming(
      path.account, path.container, invocations, source,
      TraceContextFromHeaders(request.headers));
  if (!pipeline.ok()) {
    if (pipeline.status().IsUnauthorized()) {
      // Policy denies these filters: fall back to serving the raw
      // (aligned) data. The engine has not consumed the stream — policy
      // is validated before any byte moves.
      response.SetBodyStream(std::move(source));
      return response;
    }
    if (pipeline.status().IsResourceExhausted() ||
        pipeline.status().IsDeadlineExceeded()) {
      // The QoS invocation gate refused a storlet slot (queue full or
      // wait capped): same degrade rung as a policy denial — raw bytes,
      // client filters locally. Gates, like policy, are checked before
      // the engine consumes the stream.
      if (engine_->metrics() != nullptr) {
        engine_->metrics()->GetCounter("qos.degrades")->Increment();
      }
      response.headers.Set(kQosDecisionHeader, "degraded");
      response.SetBodyStream(std::move(source));
      return response;
    }
    return HttpResponse::Make(500, pipeline.status().ToString());
  }
  source.reset();

  // Prefetch the first chunk so a pipeline that fails before producing
  // anything (bad parameters, a failing filter) surfaces as a 500 status
  // rather than an error mid-stream.
  std::string prefix(engine_->chunk_size(), '\0');
  auto first = pipeline->output->Read(prefix.data(), prefix.size());
  if (!first.ok()) {
    return HttpResponse::Make(500, first.status().ToString());
  }
  prefix.resize(*first);

  response.headers.Remove(kContentLengthHeader);  // known only at EOF
  std::string executed;
  for (const auto& invocation : invocations) {
    if (!executed.empty()) executed += ",";
    executed += invocation.name;
  }
  executed += stage_ == ExecutionStage::kObjectNode ? "@object" : "@proxy";
  response.headers.Set(kStorletExecutedHeader, executed);
  response.SetBodyStream(
      std::make_shared<PrefixedByteStream>(std::move(prefix),
                                           std::move(pipeline->output)),
      std::move(pipeline->trailers));
  return response;
}

HttpResponse StorletMiddleware::ProcessPut(
    Request& request, const HttpHandler& next, const ObjectPath& path,
    const std::vector<StorletInvocation>& invocations) {
  // The upload's stages join the request's trace.
  auto result = engine_->RunPipeline(path.account, path.container, invocations,
                                     request.body,
                                     TraceContextFromHeaders(request.headers));
  if (!result.ok()) {
    if (result.status().IsUnauthorized()) {
      // Unlike a GET, an upload has no raw fallback: storing the bytes
      // untransformed would answer 201 for data the client asked to be
      // changed. A pipeline the policy refuses (pushdown disabled, or a
      // storlet off the allow-list) refuses the write.
      return HttpResponse::Make(403, result.status().ToString());
    }
    if (result.status().IsResourceExhausted() ||
        result.status().IsDeadlineExceeded()) {
      // A PUT-side ETL transform cannot be silently skipped (it changes
      // the stored bytes), so the write is shed with a retry hint
      // instead of degraded.
      HttpResponse shed = HttpResponse::Make(503, "qos: storlet slot denied");
      shed.headers.Set(kRetryAfterHeader, "1");
      shed.headers.Set(kRetryAfterMsHeader, "100");
      shed.headers.Set(kQosDecisionHeader, "shed");
      return shed;
    }
    return HttpResponse::Make(500, result.status().ToString());
  }
  request.body = std::move(result->output);
  request.headers.Set(kContentLengthHeader,
                      std::to_string(request.body.size()));
  // Strip the invocation headers so downstream stages don't re-run them.
  request.headers.Remove(kRunStorletHeader);
  HttpResponse response = next(request);
  if (response.ok()) {
    response.headers.Set(kStorletExecutedHeader, "put@proxy");
  }
  return response;
}

}  // namespace scoop
