#ifndef SCOOP_COMMON_SYNC_H_
#define SCOOP_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

// The repo-wide synchronization layer. Every component takes its locking
// primitives from here — raw std::mutex / std::lock_guard / std::unique_lock
// outside this header (and sync.cc) are forbidden and rejected by
// tools/scoop_check — so that two properties hold everywhere:
//
//  1. Compile-time thread-safety: the wrappers carry Clang thread-safety
//     attributes, and every class documents its locking contract with
//     GUARDED_BY / REQUIRES / EXCLUDES. Clang builds run with
//     `-Wthread-safety -Werror=thread-safety`, so "touched guarded state
//     without the lock" is a build failure, not a review-time hope. Under
//     other compilers the annotations expand to nothing.
//
//  2. Runtime lock-order checking (debug builds, SCOOP_LOCK_ORDER_CHECK):
//     each Mutex carries a name and an optional rank; acquisitions record a
//     global lock-order graph, and a cycle (potential deadlock) or a
//     rank inversion aborts the process with both acquisition stacks — even
//     if the deadlock never actually fires in that run. The rank table and
//     the allowed acquisition order live in DESIGN.md ("Locking model").

// --- Clang thread-safety annotation macros (Abseil-style) -------------------

#if defined(__clang__)
#define SCOOP_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define SCOOP_TS_ATTRIBUTE(x)  // no-op outside Clang
#endif

#ifndef CAPABILITY
#define CAPABILITY(x) SCOOP_TS_ATTRIBUTE(capability(x))
#endif

#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY SCOOP_TS_ATTRIBUTE(scoped_lockable)
#endif

#ifndef GUARDED_BY
#define GUARDED_BY(x) SCOOP_TS_ATTRIBUTE(guarded_by(x))
#endif

#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) SCOOP_TS_ATTRIBUTE(pt_guarded_by(x))
#endif

#ifndef ACQUIRED_BEFORE
#define ACQUIRED_BEFORE(...) SCOOP_TS_ATTRIBUTE(acquired_before(__VA_ARGS__))
#endif

#ifndef ACQUIRED_AFTER
#define ACQUIRED_AFTER(...) SCOOP_TS_ATTRIBUTE(acquired_after(__VA_ARGS__))
#endif

#ifndef REQUIRES
#define REQUIRES(...) SCOOP_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#endif

#ifndef ACQUIRE
#define ACQUIRE(...) SCOOP_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#endif

#ifndef RELEASE
#define RELEASE(...) SCOOP_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#endif

#ifndef TRY_ACQUIRE
#define TRY_ACQUIRE(...) SCOOP_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#endif

#ifndef EXCLUDES
#define EXCLUDES(...) SCOOP_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#endif

#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) SCOOP_TS_ATTRIBUTE(lock_returned(x))
#endif

#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS \
  SCOOP_TS_ATTRIBUTE(no_thread_safety_analysis)
#endif

namespace scoop {

// --- Lock ranks -------------------------------------------------------------

// A Mutex without an explicit rank; unranked locks skip the rank check but
// still participate in the acquisition-graph cycle check.
inline constexpr int kNoLockRank = -1;

// Lock ranks, in the required acquisition order: a thread holding a lock of
// rank r may only acquire locks of strictly greater rank (or unranked
// locks). Two distinct same-rank locks must never be held together. The
// full table of which mutex guards what is in DESIGN.md "Locking model".
namespace lockrank {
inline constexpr int kQosTenants = 8;          // QosController tenant buckets
inline constexpr int kQosQueue = 9;            // weighted-fair-queue scheduler
inline constexpr int kPipeline = 10;           // storlet pipeline run state
inline constexpr int kSingleflight = 12;       // Singleflight led-key table
inline constexpr int kCacheShard = 15;         // ResultCache shard LRU
inline constexpr int kNetReactor = 16;         // reactor posted-task queue
inline constexpr int kNetConn = 17;            // one TCP connection's outbox
inline constexpr int kNetClientPool = 18;      // TcpClient idle-socket pool
inline constexpr int kQueue = 20;              // BoundedByteQueue
inline constexpr int kThreadPool = 30;         // ThreadPool bookkeeping
inline constexpr int kMetrics = 40;            // MetricRegistry maps
inline constexpr int kContainerRegistry = 41;  // account/container metadata
inline constexpr int kAuth = 42;               // AuthService tables
inline constexpr int kStorletRegistry = 43;    // storlet factories/deploys
inline constexpr int kPolicy = 44;             // PolicyStore overrides
inline constexpr int kRepairQueue = 45;        // read-repair path set
inline constexpr int kDevice = 50;             // per-device object map
inline constexpr int kTrace = 80;              // TraceCollector span buffer
inline constexpr int kFailpoint = 85;          // fault-injection registry
inline constexpr int kLogging = 90;            // log serialization, leaf-most
}  // namespace lockrank

// True when this binary was built with the runtime lock-order registry
// (SCOOP_LOCK_ORDER_CHECK); tests use it to skip the death tests otherwise.
bool LockOrderCheckingEnabled();

// --- Primitives -------------------------------------------------------------

// Annotated exclusive lock. Prefer the named/ranked constructor for any
// mutex that can be held while another is acquired; the name and rank feed
// the debug lock-order checker's diagnostics.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() : Mutex(nullptr) {}
  explicit Mutex(const char* name, int rank = kNoLockRank)
      : name_(name), rank_(rank) {}
  ~Mutex();

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE();
  void Unlock() RELEASE();
  // Never blocks, so it records the acquisition but establishes no
  // lock-order edge (a trylock in the "wrong" order cannot deadlock).
  bool TryLock() TRY_ACQUIRE(true);

  // BasicLockable spelling so std::condition_variable_any (inside CondVar)
  // can release and reacquire the mutex around a wait. Not for direct use.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  std::mutex mu_;
  const char* const name_;
  const int rank_;
};

// RAII scope lock over a Mutex (the only idiomatic way to hold one).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Condition variable bound to a Mutex at each wait. Callers re-check their
// predicate in a while loop around Wait — the predicate then reads guarded
// state inside the annotated critical section, which keeps the Clang
// analysis precise (no lambda predicates escaping the lock scope).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, waits, and reacquires `mu` before returning.
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  // As Wait, but returns false if `timeout` elapsed before a notification.
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    return cv_.wait_for(mu, timeout) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace scoop

#endif  // SCOOP_COMMON_SYNC_H_
