#include "objectstore/object_server.h"

#include <algorithm>
#include <cstring>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/strings.h"

namespace scoop {

namespace {

// The device-side GET data plane. Instead of sharing the at-rest buffer out
// directly, each aligned kIntegrityChunkSize slice is materialized into a
// private copy, passed through the "object.read.chunk" failpoint (which may
// corrupt or truncate the copy — never the at-rest object), and verified
// against the chunk hash recorded at PUT. A corrupt chunk therefore turns
// into an IOError *before* its bytes are delivered, early enough for the
// proxy to resume the stream from another replica; memory stays bounded at
// one chunk regardless of object size.
class ObjectChunkStream : public ByteStream {
 public:
  ObjectChunkStream(std::shared_ptr<const StoredObject> object,
                    size_t win_start, size_t win_len, size_t chunk_size,
                    std::string device_key)
      : object_(std::move(object)),
        win_start_(win_start),
        win_len_(win_len),
        chunk_size_(chunk_size == 0 ? 1 : chunk_size),
        device_key_(std::move(device_key)) {}

  Result<size_t> Read(char* buf, size_t n) override {
    while (buf_pos_ >= buf_end_) {
      if (!sticky_error_.ok()) return sticky_error_;
      if (pos_ >= win_len_) return static_cast<size_t>(0);
      SCOOP_RETURN_IF_ERROR(Refill());
    }
    size_t count = std::min({n, chunk_size_, buf_end_ - buf_pos_});
    std::memcpy(buf, buf_.data() + buf_pos_, count);
    buf_pos_ += count;
    pos_ += count;
    return count;
  }

  std::optional<uint64_t> SizeHint() const override {
    return win_len_ - pos_;
  }

 private:
  Status Refill() {
    const std::string& data = object_->data;
    size_t abs = win_start_ + pos_;
    size_t chunk_idx = abs / kIntegrityChunkSize;
    size_t chunk_begin = chunk_idx * kIntegrityChunkSize;
    size_t chunk_len =
        std::min(kIntegrityChunkSize, data.size() - chunk_begin);
    buf_.assign(data, chunk_begin, chunk_len);
    bool dropped = false;
    if (FailpointsArmed()) {
      size_t keep = buf_.size();
      Status err;
      DataFaultKind kind = Failpoints::Global().CheckData(
          "object.read.chunk", device_key_, buf_.data(), buf_.size(), &keep,
          &err);
      switch (kind) {
        case DataFaultKind::kNone:
        case DataFaultKind::kCorrupted:
          break;  // corruption is caught by the hash check below
        case DataFaultKind::kError:
          sticky_error_ = err;
          return err;
        case DataFaultKind::kDrop:
          buf_.resize(std::min(keep, buf_.size()));
          sticky_error_ =
              err.ok() ? Status::IOError("stream dropped mid-chunk") : err;
          dropped = true;
          break;
      }
    }
    if (!dropped && chunk_idx < object_->chunk_hashes.size() &&
        Xxh64(buf_) != object_->chunk_hashes[chunk_idx]) {
      sticky_error_ = Status::IOError(
          "chunk integrity check failed at offset " +
          std::to_string(chunk_begin));
      return sticky_error_;
    }
    // Serve only the portion of the aligned chunk inside the request
    // window (range GETs start mid-chunk): [buf_pos_, buf_end_).
    buf_pos_ = std::min(abs - chunk_begin, buf_.size());
    buf_end_ = buf_pos_ + std::min(buf_.size() - buf_pos_, win_len_ - pos_);
    if (buf_pos_ == buf_end_ && !sticky_error_.ok()) return sticky_error_;
    return Status::OK();
  }

  std::shared_ptr<const StoredObject> object_;
  const size_t win_start_;
  const size_t win_len_;
  const size_t chunk_size_;
  const std::string device_key_;
  std::string buf_;  // the verified aligned chunk
  size_t buf_pos_ = 0;
  size_t buf_end_ = 0;
  size_t pos_ = 0;  // delivered bytes within the window
  Status sticky_error_ = Status::OK();
};

}  // namespace

ObjectServer::ObjectServer(int node_id, const std::vector<int>& device_ids,
                           MetricRegistry* metrics)
    : node_id_(node_id), metrics_(metrics) {
  for (int id : device_ids) {
    auto device = std::make_shared<Device>(id);
    devices_by_id_[id] = device.get();
    devices_.push_back(std::move(device));
  }
  pipeline_ = std::make_unique<Pipeline>(
      [this](Request& request) { return App(request); });
}

HttpResponse ObjectServer::Handle(Request& request) {
  // Child of the proxy's attempt span (or of whatever hop stamped the
  // headers); the storlet middleware on this node parents off our re-stamp.
  TraceSpan span("objectserver.request",
                 TraceContextFromHeaders(request.headers));
  if (span.active()) {
    span.SetTag("node", std::to_string(node_id_));
    span.SetTag("method", std::string(HttpMethodName(request.method)));
    span.SetTag("device", request.headers.GetOr(kBackendDeviceHeader, ""));
    StampTraceContext(span.context(), &request.headers);
  }
  Stopwatch watch;
  HttpResponse response = pipeline_->Handle(request);
  if (metrics_ != nullptr) {
    // Like proxy.get_us: handler latency up to the response head — a
    // streamed GET body is drained by the layer above.
    int64_t us = static_cast<int64_t>(watch.ElapsedSeconds() * 1e6);
    if (request.method == HttpMethod::kGet) {
      metrics_->GetHistogram("objectserver.get_us")->Record(us);
    } else if (request.method == HttpMethod::kPut) {
      metrics_->GetHistogram("objectserver.put_us")->Record(us);
    }
  }
  if (span.active()) span.SetTag("status", std::to_string(response.status));
  return response;
}

Device* ObjectServer::GetDevice(int device_id) {
  auto it = devices_by_id_.find(device_id);
  return it == devices_by_id_.end() ? nullptr : it->second;
}

std::string ObjectServer::ComputeEtag(
    const std::vector<uint64_t>& chunk_hashes) {
  std::string words;
  words.reserve(chunk_hashes.size() * 8);
  for (uint64_t h : chunk_hashes) {
    for (int byte = 0; byte < 8; ++byte) {
      words.push_back(static_cast<char>(h >> (8 * byte)));
    }
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(Xxh64(words)));
}

HttpResponse ObjectServer::App(Request& request) {
  auto path_result = ObjectPath::Parse(request.path);
  if (!path_result.ok() || !path_result->IsObject()) {
    return HttpResponse::Make(400, "object server requires an object path");
  }
  auto device_header = request.headers.Get(kBackendDeviceHeader);
  if (!device_header) {
    return HttpResponse::Make(400, "missing X-Backend-Device");
  }
  auto device_id = ParseInt64(*device_header);
  if (!device_id.ok()) {
    return HttpResponse::Make(400, "bad X-Backend-Device");
  }
  Device* device = GetDevice(static_cast<int>(*device_id));
  if (device == nullptr) {
    return HttpResponse::Make(400, "device not on this node");
  }
  switch (request.method) {
    case HttpMethod::kGet:
      return DoGet(request, *device, *path_result);
    case HttpMethod::kPut:
      return DoPut(request, *device, *path_result);
    case HttpMethod::kDelete:
      return DoDelete(*device, *path_result);
    case HttpMethod::kHead:
      return DoHead(*device, *path_result);
    case HttpMethod::kPost:
      return HttpResponse::Make(405, "POST not supported on object servers");
  }
  return HttpResponse::Make(500, "unreachable");
}

HttpResponse ObjectServer::DoGet(Request& request, Device& device,
                                 const ObjectPath& path) {
  auto stored = device.GetShared(path.ToString());
  if (!stored.ok()) {
    if (stored.status().IsNotFound()) return HttpResponse::Make(404);
    return HttpResponse::Make(503, stored.status().ToString());
  }
  const StoredObject& object = **stored;
  HttpResponse response;
  response.headers = object.metadata;
  response.headers.Set(kEtagHeader, object.etag);
  std::string_view window = object.data;
  auto range_header = request.headers.Get(kRangeHeader);
  if (range_header) {
    auto range = ByteRange::Parse(*range_header, object.data.size());
    if (!range.ok()) {
      return HttpResponse::Make(416, range.status().ToString());
    }
    response.status = 206;
    window = window.substr(range->first, range->length());
    response.headers.Set(
        "Content-Range",
        StrFormat("bytes %llu-%llu/%llu",
                  static_cast<unsigned long long>(range->first),
                  static_cast<unsigned long long>(range->last),
                  static_cast<unsigned long long>(object.data.size())));
  } else {
    response.status = 200;
  }
  response.headers.Set(kContentLengthHeader, std::to_string(window.size()));
  // Serve the (possibly range-sliced) payload as a verifying chunk producer
  // over the shared at-rest object: one aligned chunk is materialized and
  // integrity-checked at a time, and consumers pull at most chunk_size_
  // bytes per read.
  size_t win_start = static_cast<size_t>(window.data() - object.data.data());
  response.SetBodyStream(std::make_shared<ObjectChunkStream>(
      std::move(stored).value(), win_start, window.size(), chunk_size_,
      device.failpoint_key()));
  if (metrics_ != nullptr) {
    metrics_->GetCounter(StrFormat("node_%d.bytes_read", node_id_))
        ->Add(static_cast<int64_t>(window.size()));
    metrics_->GetCounter(StrFormat("node_%d.get_requests", node_id_))
        ->Increment();
  }
  return response;
}

HttpResponse ObjectServer::DoPut(Request& request, Device& device,
                                 const ObjectPath& path) {
  StoredObject object;
  object.data = std::move(request.body);
  object.chunk_hashes = ComputeChunkHashes(object.data);
  object.etag = ComputeEtag(object.chunk_hashes);
  auto ts = request.headers.Get(kTimestampHeader);
  if (ts) {
    auto parsed = ParseInt64(*ts);
    if (parsed.ok()) object.timestamp = static_cast<uint64_t>(*parsed);
  }
  // Preserve user metadata (X-Object-Meta-*) and content type.
  for (const auto& [name, value] : request.headers) {
    if (StartsWith(ToLower(name), "x-object-meta-") ||
        ToLower(name) == "content-type") {
      object.metadata.Set(name, value);
    }
  }
  size_t bytes = object.data.size();
  std::string etag = object.etag;
  Status s = device.Put(path.ToString(), std::move(object));
  if (!s.ok()) return HttpResponse::Make(503, s.ToString());
  if (metrics_ != nullptr) {
    metrics_->GetCounter(StrFormat("node_%d.bytes_written", node_id_))
        ->Add(static_cast<int64_t>(bytes));
  }
  HttpResponse response = HttpResponse::Make(201);
  response.headers.Set(kEtagHeader, etag);
  return response;
}

HttpResponse ObjectServer::DoDelete(Device& device, const ObjectPath& path) {
  Status s = device.Delete(path.ToString());
  if (s.IsNotFound()) return HttpResponse::Make(404);
  if (!s.ok()) return HttpResponse::Make(503, s.ToString());
  return HttpResponse::Make(204);
}

HttpResponse ObjectServer::DoHead(Device& device, const ObjectPath& path) {
  auto stored = device.GetShared(path.ToString());
  if (!stored.ok()) {
    if (stored.status().IsNotFound()) return HttpResponse::Make(404);
    return HttpResponse::Make(503, stored.status().ToString());
  }
  HttpResponse response = HttpResponse::Make(200);
  response.headers = (*stored)->metadata;
  response.headers.Set(kEtagHeader, (*stored)->etag);
  response.headers.Set(kContentLengthHeader,
                       std::to_string((*stored)->data.size()));
  return response;
}

}  // namespace scoop
