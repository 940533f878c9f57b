#ifndef SCOOP_COMMON_FAILPOINT_H_
#define SCOOP_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/sync.h"

namespace scoop {

// Fault injection for the request path. A *failpoint* is a named site in
// production code (`SCOOP_FAILPOINT("device.read")`) that normally does
// nothing; a test arms it with a FailpointSpec and the site then fires
// deterministically — returning an injected Status, sleeping, corrupting
// the bytes in flight, or dropping a stream mid-chunk. This is how the
// chaos suite manufactures the device failures, slow disks, corrupt
// chunks and storlet crashes the self-healing request path must survive
// (ROADMAP: "handles as many scenarios as you can imagine"; paper §III-IV
// rely on Swift masking exactly these faults).
//
// Properties:
//  * Zero overhead disarmed: sites check one relaxed atomic and branch.
//  * Deterministic: probabilistic triggers draw from a per-failpoint
//    xoshiro RNG seeded from SCOOP_FAILPOINT_SEED (env) or the spec, so
//    the same seed yields the same fault schedule.
//  * Scoped: a spec may carry a `key` (e.g. a device id); the site passes
//    its own key and only matching evaluations fire. An empty spec key
//    matches every site evaluation.
//  * Thread-safe under the sync.h layer (rank lockrank::kFailpoint; the
//    registry mutex is leaf-most apart from logging and is never held
//    across a sleep or a user callback).

// --- Site catalog -----------------------------------------------------------
// Every SCOOP_FAILPOINT / FailpointCheck site in the tree must use one of
// these names: Arm() rejects unknown names and tools/scoop_check cross-checks
// the sources against this list (check `failpoint-name`).
inline constexpr const char* kFailpointSites[] = {
    "device.read",         // Device::GetShared / Get entry (keyed: device id)
    "device.write",        // Device::Put entry (keyed: device id)
    "device.delete",       // Device::Delete entry (keyed: device id)
    "object.read.chunk",   // per-chunk GET data plane (keyed: device id)
    "proxy.backend",       // proxy -> object-server hop (keyed: device id)
    "replicator.push",     // replica-repair write (keyed: device id)
    "middleware.get",      // storlet middleware GET interception
    "engine.invoke",       // storlet pipeline launch
    "engine.stage_crash",  // stage thread dies without closing its queue
    "cache.lookup",        // result-cache lookup (fault => uncached path)
    "cache.fill",          // result-cache fill (fault => fill dropped)
    "qos.admit",           // proxy QoS admission (fault => pushdown degrades)
    "qos.queue",           // fair-queue slot acquisition (fault => slot denied)
};

// What an armed failpoint does when it fires.
struct FailpointSpec {
  enum class Action {
    kError,    // evaluation returns `error`
    kLatency,  // evaluation sleeps `latency_us`, then proceeds normally
    kCorrupt,  // data-plane sites: flip bytes of the in-flight chunk
    kDrop,     // data-plane sites: truncate the chunk, then fail the stream
  };
  Action action = Action::kError;

  // kError payload. Also the status a dropped stream reports after the
  // truncated chunk.
  Status error = Status::IOError("injected fault");
  // kLatency payload.
  int64_t latency_us = 0;

  // Trigger shaping, applied in order: skip the first `skip` matching
  // evaluations, then fire each subsequent one with `probability`, at most
  // `max_fires` times (-1: unlimited). skip=N-1, max_fires=1 is "fire on
  // exactly the Nth hit".
  int skip = 0;
  int max_fires = -1;
  double probability = 1.0;

  // Only evaluations presenting this key fire; empty matches all.
  std::string key;

  // Seed for the probability draws and corruption positions; 0 derives a
  // per-site seed from the process-wide seed (SCOOP_FAILPOINT_SEED).
  uint64_t seed = 0;
};

// Outcome of a data-plane evaluation (see CheckData).
enum class DataFaultKind {
  kNone,       // proceed (latency, if any, already applied)
  kError,      // fail the read with the returned status
  kCorrupted,  // chunk bytes were flipped in place; deliver them
  kDrop,       // deliver the truncated chunk, then fail the stream
};

namespace failpoint_detail {
// Count of currently armed failpoints; sites branch on this and skip the
// registry entirely at zero. Relaxed is fine: arming happens-before the
// operations a test injects faults into via the test's own synchronization.
extern std::atomic<int> g_armed;
}  // namespace failpoint_detail

inline bool FailpointsArmed() {
  return failpoint_detail::g_armed.load(std::memory_order_relaxed) > 0;
}

// Process-wide failpoint registry.
class Failpoints {
 public:
  static Failpoints& Global();

  // Arms `name` with `spec`; re-arming replaces the spec and resets the
  // hit/fire counters for the site. Unknown names are rejected.
  Status Arm(std::string_view name, FailpointSpec spec) EXCLUDES(mu_);
  void Disarm(std::string_view name) EXCLUDES(mu_);
  void DisarmAll() EXCLUDES(mu_);

  // Mirrors every fire into `counter` (a cluster's "faults.injected");
  // nullptr detaches. The counter must outlive its registration.
  void SetFaultCounter(Counter* counter) EXCLUDES(mu_);
  // Detaches only if `counter` is the one currently registered — lets an
  // owner unregister on destruction without clobbering a newer owner.
  void ClearFaultCounter(Counter* counter) EXCLUDES(mu_);

  // Names of the currently armed sites, sorted. Trace spans along the
  // retry path tag attempts with this so a faulted run's trace shows
  // *which* injected fault each retry was healing.
  std::vector<std::string> ArmedSites() const EXCLUDES(mu_);

  // Evaluations since the site was (re)armed / since it fired.
  int64_t hits(std::string_view name) const EXCLUDES(mu_);
  int64_t fires(std::string_view name) const EXCLUDES(mu_);
  // Total fires across all sites since process start.
  int64_t total_fires() const { return total_fires_.load(); }

  // The process-wide seed: SCOOP_FAILPOINT_SEED from the environment, else
  // kDefaultSeed. Read once at first use.
  static constexpr uint64_t kDefaultSeed = 42;
  uint64_t global_seed() const { return global_seed_; }

  // --- Site evaluation ------------------------------------------------------

  // Control-plane site: returns the injected error when the site fires
  // with kError (kCorrupt/kDrop act like kError here — a control-plane
  // site has no bytes to corrupt), applies kLatency sleeps inline.
  Status Check(std::string_view name, std::string_view key = {})
      EXCLUDES(mu_);

  // Data-plane site: evaluates against the chunk in [data, data+len).
  // kCorrupted flips a few bytes in place at seeded positions; kDrop
  // reports how much of the chunk to keep via *keep_len. Latency sleeps
  // are applied inline; *error carries the kError / kDrop status.
  DataFaultKind CheckData(std::string_view name, std::string_view key,
                          char* data, size_t len, size_t* keep_len,
                          Status* error) EXCLUDES(mu_);

  Failpoints(const Failpoints&) = delete;
  Failpoints& operator=(const Failpoints&) = delete;

 private:
  Failpoints();

  struct Armed {
    FailpointSpec spec;
    Rng rng{0};
    int64_t hits = 0;
    int64_t fires = 0;
  };

  // Decides whether `name` fires now; fills `*out` with the spec on fire.
  // Latency is returned (not slept) so the sleep happens lock-free.
  bool Fire(std::string_view name, std::string_view key, FailpointSpec* out,
            uint64_t* corrupt_draw) EXCLUDES(mu_);

  static bool KnownSite(std::string_view name);

  const uint64_t global_seed_;
  std::atomic<int64_t> total_fires_{0};
  mutable Mutex mu_{"failpoints", lockrank::kFailpoint};
  std::map<std::string, Armed, std::less<>> armed_ GUARDED_BY(mu_);
  Counter* fault_counter_ GUARDED_BY(mu_) = nullptr;
};

// Evaluates a control-plane failpoint; OK when disarmed or not firing.
inline Status FailpointCheck(std::string_view name,
                             std::string_view key = {}) {
  if (!FailpointsArmed()) return Status::OK();
  return Failpoints::Global().Check(name, key);
}

// Control-plane site in a function returning Status or Result<T>: returns
// the injected error to the caller when the site fires.
#define SCOOP_FAILPOINT(name)                                \
  do {                                                       \
    if (::scoop::FailpointsArmed()) {                        \
      SCOOP_RETURN_IF_ERROR(::scoop::FailpointCheck(name));  \
    }                                                        \
  } while (false)

// Keyed form: `key` is only evaluated when some failpoint is armed.
#define SCOOP_FAILPOINT_KEYED(name, key)                          \
  do {                                                            \
    if (::scoop::FailpointsArmed()) {                             \
      SCOOP_RETURN_IF_ERROR(::scoop::FailpointCheck(name, key));  \
    }                                                             \
  } while (false)

}  // namespace scoop

#endif  // SCOOP_COMMON_FAILPOINT_H_
