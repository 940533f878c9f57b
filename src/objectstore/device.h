// StorageDevice: one disk of one storage node, holding replica objects
// with timestamps and per-chunk checksums. Every IO passes the
// device.read/write/delete failpoints, which is where the chaos suite
// injects disk faults. Locking per DESIGN.md §3d (rank
// lockrank::kDevice, leaf — the replicator never nests two devices).
#ifndef SCOOP_OBJECTSTORE_DEVICE_H_
#define SCOOP_OBJECTSTORE_DEVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "objectstore/http.h"

namespace scoop {

// Granularity of the at-rest integrity hashes: one Xxh64 per aligned
// 64 KiB slice of the payload. Matches kDefaultStreamChunk so a streaming
// GET can verify each chunk as it leaves the device — a corrupt chunk is
// detected *before* delivery, early enough for the proxy to fail over to
// another replica instead of handing the client bad bytes.
inline constexpr size_t kIntegrityChunkSize = 64 * 1024;

// Per-chunk Xxh64 hashes of `data` at kIntegrityChunkSize granularity
// (empty payload -> no hashes). The object server computes them once per
// PUT and derives the ETag from them (ObjectServer::ComputeEtag), so a PUT
// hashes its payload in one pass.
std::vector<uint64_t> ComputeChunkHashes(std::string_view data);

// An object replica at rest on a device: payload plus user/system metadata.
struct StoredObject {
  std::string data;
  Headers metadata;   // user metadata (X-Object-Meta-*) and content type
  std::string etag;   // content hash, Swift's ETag (ObjectServer::ComputeEtag)
  uint64_t timestamp = 0;  // last-write-wins ordering
  // Integrity hashes (see ComputeChunkHashes); empty means "not computed"
  // and disables per-chunk verification for this copy.
  std::vector<uint64_t> chunk_hashes;
};

// One disk of a storage node. Thread-safe in-memory object map with the
// small mutation surface the object server needs. A device can be "failed"
// to exercise replica-repair paths.
//
// Locking contract: `mu_` (rank lockrank::kDevice) guards the object map
// and the failed flag; every public method takes it for the duration of
// the call. It is a leaf lock — streaming GETs share the immutable object
// out and read it with no lock held, and the replicator copies between
// devices with sequential (never nested) per-device critical sections.
class Device {
 public:
  explicit Device(int id) : id_(id), key_("d" + std::to_string(id)) {}

  int id() const { return id_; }
  // Stable key naming this device at failpoint sites ("d<id>"), so a test
  // can scope a fault to one replica of an object.
  const std::string& failpoint_key() const { return key_; }

  Status Put(const std::string& path, StoredObject object);
  // Zero-copy read: shares the immutable at-rest object so a GET can be
  // served as a chunk stream without duplicating the payload. The object
  // stays valid even if overwritten or deleted while a reader holds it
  // (readers see the version that was current when they started).
  Result<std::shared_ptr<const StoredObject>> GetShared(
      const std::string& path) const;
  Status Delete(const std::string& path);
  bool Exists(const std::string& path) const;

  // All object paths currently stored, sorted. Used by the replicator.
  std::vector<std::string> ListPaths() const;

  uint64_t TotalBytes() const;
  size_t ObjectCount() const;

  // Simulated device failure: all operations return IOError until repaired.
  void Fail() { SetFailed(true); }
  void Repair() { SetFailed(false); }
  bool failed() const;

  // Drops every object (used with Fail/Repair to model disk replacement).
  void Wipe();

 private:
  void SetFailed(bool failed);

  const int id_;
  const std::string key_;
  mutable Mutex mu_{"device", lockrank::kDevice};
  bool failed_ GUARDED_BY(mu_) = false;
  // Objects are immutable once stored (PUT replaces the pointer), so GETs
  // can share them out without holding the device lock while streaming.
  std::map<std::string, std::shared_ptr<const StoredObject>> objects_
      GUARDED_BY(mu_);
};

}  // namespace scoop

#endif  // SCOOP_OBJECTSTORE_DEVICE_H_
