#include "objectstore/replicator.h"

#include "common/failpoint.h"
#include "common/strings.h"

namespace scoop {

Replicator::Replicator(const Ring* ring, std::vector<Device*> devices_by_id,
                       MetricRegistry* metrics)
    : ring_(ring), devices_(std::move(devices_by_id)), metrics_(metrics) {}

Replicator::Report Replicator::RunOnce(bool remove_handoffs) {
  TraceSpan span("replicator.run");
  if (span.active()) span.SetTag("mode", "scan");
  Stopwatch watch;
  Report report;
  // Collect the union of object paths across all reachable devices.
  std::set<std::string> all_paths;
  for (Device* device : devices_) {
    if (device == nullptr || device->failed()) continue;
    for (std::string& path : device->ListPaths()) {
      all_paths.insert(std::move(path));
    }
  }
  for (const std::string& path : all_paths) {
    RepairOne(path, remove_handoffs, &report, span.context());
  }
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("replicator.run_us")
        ->Record(static_cast<int64_t>(watch.ElapsedSeconds() * 1e6));
  }
  if (span.active()) {
    span.SetTag("scanned", std::to_string(report.objects_scanned));
    span.SetTag("repaired", std::to_string(report.replicas_repaired));
  }
  return report;
}

Replicator::Report Replicator::RepairPaths(
    const std::vector<std::string>& paths) {
  TraceSpan span("replicator.run");
  if (span.active()) span.SetTag("mode", "read_repair");
  Stopwatch watch;
  Report report;
  for (const std::string& path : paths) {
    RepairOne(path, /*remove_handoffs=*/false, &report, span.context());
  }
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("replicator.run_us")
        ->Record(static_cast<int64_t>(watch.ElapsedSeconds() * 1e6));
  }
  if (span.active()) {
    span.SetTag("scanned", std::to_string(report.objects_scanned));
    span.SetTag("repaired", std::to_string(report.replicas_repaired));
  }
  return report;
}

void Replicator::RepairOne(const std::string& path, bool remove_handoffs,
                           Report* report, const TraceContext& parent) {
  TraceSpan span("replicator.repair", parent);
  if (span.active()) {
    span.SetTag("path", path);
    if (FailpointsArmed()) {
      span.SetTag("armed", Join(Failpoints::Global().ArmedSites(), ","));
    }
  }
  ++report->objects_scanned;
  const std::vector<int>& replicas = ring_->GetNodes(path);
  // Find the newest available copy. Copies are shared, not duplicated:
  // only a pushed replica is copied, by Device::Put.
  std::shared_ptr<const StoredObject> newest;
  auto consider = [&](Device* device) {
    auto copy = device->GetShared(path);
    if (copy.ok() && (newest == nullptr ||
                      (*copy)->timestamp > newest->timestamp)) {
      newest = std::move(copy).value();
    }
  };
  for (int device_id : replicas) {
    Device* device = devices_[device_id];
    if (device != nullptr) consider(device);
  }
  if (newest == nullptr) {
    // An object may exist only on devices outside its replica set after a
    // ring change; look everywhere as handoff recovery.
    for (Device* device : devices_) {
      if (device != nullptr && !device->failed()) consider(device);
    }
  }
  if (newest == nullptr) {
    report->replicas_unreachable += static_cast<int>(replicas.size());
    if (span.active()) span.SetTag("outcome", "unreachable");
    return;
  }
  int repaired = 0;
  int replicas_in_place = 0;
  for (int device_id : replicas) {
    Device* device = devices_[device_id];
    if (device == nullptr || device->failed()) {
      ++report->replicas_unreachable;
      continue;
    }
    auto existing = device->GetShared(path);
    if (existing.ok() && (*existing)->timestamp >= newest->timestamp) {
      ++replicas_in_place;
      continue;
    }
    Status push = FailpointCheck("replicator.push", device->failpoint_key());
    if (push.ok()) push = device->Put(path, *newest);
    if (push.ok()) {
      ++report->replicas_repaired;
      ++repaired;
      ++replicas_in_place;
    } else {
      // The copy could not be placed (device failed mid-repair or an
      // injected push fault): the replica set is still degraded and the
      // report must say so.
      ++report->replicas_unreachable;
    }
  }
  if (span.active()) span.SetTag("repaired", std::to_string(repaired));
  // Handoff cleanup: only once the object is fully replicated on its
  // assigned devices may stray copies be dropped.
  if (remove_handoffs &&
      replicas_in_place == static_cast<int>(replicas.size())) {
    for (Device* device : devices_) {
      if (device == nullptr || device->failed()) continue;
      bool assigned = false;
      for (int id : replicas) {
        if (device->id() == id) assigned = true;
      }
      if (assigned || !device->Exists(path)) continue;
      if (device->Delete(path).ok()) ++report->handoffs_removed;
    }
  }
}

}  // namespace scoop
