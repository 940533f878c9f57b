#include "objectstore/device.h"

#include "common/failpoint.h"
#include "common/hash.h"

namespace scoop {

std::vector<uint64_t> ComputeChunkHashes(std::string_view data) {
  std::vector<uint64_t> hashes;
  hashes.reserve((data.size() + kIntegrityChunkSize - 1) /
                 kIntegrityChunkSize);
  for (size_t off = 0; off < data.size(); off += kIntegrityChunkSize) {
    hashes.push_back(Xxh64(
        data.substr(off, std::min(kIntegrityChunkSize, data.size() - off))));
  }
  return hashes;
}

Status Device::Put(const std::string& path, StoredObject object) {
  SCOOP_FAILPOINT_KEYED("device.write", key_);
  MutexLock lock(mu_);
  if (failed_) return Status::IOError("device failed");
  auto it = objects_.find(path);
  if (it != objects_.end() && it->second->timestamp > object.timestamp) {
    // Last-write-wins: an older write never clobbers a newer object.
    return Status::OK();
  }
  objects_[path] = std::make_shared<const StoredObject>(std::move(object));
  return Status::OK();
}

Result<std::shared_ptr<const StoredObject>> Device::GetShared(
    const std::string& path) const {
  SCOOP_FAILPOINT_KEYED("device.read", key_);
  MutexLock lock(mu_);
  if (failed_) return Status::IOError("device failed");
  auto it = objects_.find(path);
  if (it == objects_.end()) return Status::NotFound("no object at " + path);
  return it->second;
}

Status Device::Delete(const std::string& path) {
  SCOOP_FAILPOINT_KEYED("device.delete", key_);
  MutexLock lock(mu_);
  if (failed_) return Status::IOError("device failed");
  if (objects_.erase(path) == 0) return Status::NotFound("no object at " + path);
  return Status::OK();
}

bool Device::Exists(const std::string& path) const {
  MutexLock lock(mu_);
  if (failed_) return false;
  return objects_.find(path) != objects_.end();
}

std::vector<std::string> Device::ListPaths() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(objects_.size());
  for (const auto& [path, obj] : objects_) out.push_back(path);
  return out;
}

uint64_t Device::TotalBytes() const {
  MutexLock lock(mu_);
  uint64_t total = 0;
  for (const auto& [path, obj] : objects_) total += obj->data.size();
  return total;
}

size_t Device::ObjectCount() const {
  MutexLock lock(mu_);
  return objects_.size();
}

bool Device::failed() const {
  MutexLock lock(mu_);
  return failed_;
}

void Device::SetFailed(bool failed) {
  MutexLock lock(mu_);
  failed_ = failed;
}

void Device::Wipe() {
  MutexLock lock(mu_);
  objects_.clear();
}

}  // namespace scoop
