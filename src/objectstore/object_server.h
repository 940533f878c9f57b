// The object server: one storage node's request handler, running its own
// middleware pipeline (storlet engine included — this is where pushdown
// filters execute, next to the disks) over the node's StorageDevices.
// Serves ranged GETs chunk by chunk with per-chunk checksum verification
// and records objectserver.get_us/put_us handler latency (METRICS.md).
#ifndef SCOOP_OBJECTSTORE_OBJECT_SERVER_H_
#define SCOOP_OBJECTSTORE_OBJECT_SERVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "objectstore/device.h"
#include "objectstore/http.h"
#include "objectstore/middleware.h"

namespace scoop {

// Backend headers used on the proxy -> object-server hop.
inline constexpr char kBackendDeviceHeader[] = "X-Backend-Device";
inline constexpr char kTimestampHeader[] = "X-Timestamp";
inline constexpr char kEtagHeader[] = "ETag";
inline constexpr char kContentLengthHeader[] = "Content-Length";
inline constexpr char kRangeHeader[] = "Range";

// A Swift object server: owns the devices of one storage node and serves
// replica-level GET/PUT/DELETE/HEAD. Requests arrive through this node's
// middleware pipeline, which is where the Storlet object-node stage hooks
// in — computations run here, next to the disk, exactly as §V-A argues
// they should (no full-object transfer to a proxy, higher parallelism).
class ObjectServer {
 public:
  // `node_id` identifies this node; `device_ids` are ring device ids local
  // to this node. `metrics` (optional) receives per-node traffic counters.
  ObjectServer(int node_id, const std::vector<int>& device_ids,
               MetricRegistry* metrics);

  int node_id() const { return node_id_; }

  // The middleware pipeline in front of the storage application.
  Pipeline& pipeline() { return *pipeline_; }

  // Entry point for proxy-to-object-server requests. The request must
  // carry X-Backend-Device naming one of this node's devices.
  HttpResponse Handle(Request& request);

  Device* GetDevice(int device_id);
  const std::vector<std::shared_ptr<Device>>& devices() const {
    return devices_;
  }

  // The ETag of an object whose chunk hashes (ComputeChunkHashes) are
  // `chunk_hashes`: 16 lowercase hex digits of Xxh64 over the hashes as
  // consecutive 8-byte little-endian words, as S3 derives a multipart ETag
  // from its part hashes. Equal content gives equal ETags on every replica.
  static std::string ComputeEtag(const std::vector<uint64_t>& chunk_hashes);

  // Chunk granularity GET bodies are produced at (test hook; consumers
  // pulling with larger buffers still receive at most this much per read).
  void set_chunk_size(size_t chunk_size) {
    chunk_size_ = chunk_size == 0 ? 1 : chunk_size;
  }
  size_t chunk_size() const { return chunk_size_; }

 private:
  HttpResponse App(Request& request);
  HttpResponse DoGet(Request& request, Device& device, const ObjectPath& path);
  HttpResponse DoPut(Request& request, Device& device, const ObjectPath& path);
  HttpResponse DoDelete(Device& device, const ObjectPath& path);
  HttpResponse DoHead(Device& device, const ObjectPath& path);

  const int node_id_;
  size_t chunk_size_ = kDefaultStreamChunk;
  std::vector<std::shared_ptr<Device>> devices_;
  std::map<int, Device*> devices_by_id_;
  MetricRegistry* metrics_;
  std::unique_ptr<Pipeline> pipeline_;
};

}  // namespace scoop

#endif  // SCOOP_OBJECTSTORE_OBJECT_SERVER_H_
