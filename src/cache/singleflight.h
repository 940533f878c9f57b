// Request coalescing for identical pushdown GETs: a per-key latch. The
// first caller of a key *leads*: it runs the request, and the cache
// middleware fills the leader's result into the ResultCache before it
// releases the key. A concurrent caller of the same key blocks until that
// release and then reads the entry the leader filled, so a thundering
// herd costs one storlet invocation. When the leader filled nothing (its
// pushdown was declined, it failed, its result was too big), the waiters
// run the request themselves (DESIGN.md §3g).
//
// The latch holds no response state: bytes reach a waiter only through
// the cache. Lock rank: the key table mutex is lockrank::kSingleflight;
// nothing else is acquired under it.
#ifndef SCOOP_CACHE_SINGLEFLIGHT_H_
#define SCOOP_CACHE_SINGLEFLIGHT_H_

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/sync.h"

namespace scoop {

class Singleflight {
 public:
  // A waiter gives up on a wedged leader after this long and runs the
  // request itself. It covers the leader's whole drain, not just its
  // first byte: the key is released only once the leader's body is read.
  static constexpr std::chrono::milliseconds kMaxWait{30'000};

  // The leader's hold on one key. Destroying it releases the key and
  // wakes every caller waiting on it. The Singleflight must outlive it.
  class Lead {
   public:
    Lead(const Lead&) = delete;
    Lead& operator=(const Lead&) = delete;
    ~Lead();

   private:
    friend class Singleflight;
    Lead(Singleflight* owner, std::string key)
        : owner_(owner), key_(std::move(key)) {}

    Singleflight* const owner_;
    const std::string key_;
  };

  explicit Singleflight(std::chrono::milliseconds max_wait = kMaxWait)
      : max_wait_(max_wait) {}

  Singleflight(const Singleflight&) = delete;
  Singleflight& operator=(const Singleflight&) = delete;

  // Leads `key` when no one does. Otherwise blocks until the current
  // leader releases the key, or `max_wait` passes, and returns null: the
  // caller never leads a key it found led.
  std::unique_ptr<Lead> Join(const std::string& key) EXCLUDES(mu_);

 private:
  void Release(const std::string& key) EXCLUDES(mu_);

  const std::chrono::milliseconds max_wait_;
  Mutex mu_{"singleflight", lockrank::kSingleflight};
  // One CondVar for every key: a release wakes all waiters, and each
  // re-checks its own key. Herds are rare, so the extra wakeups are cheap.
  CondVar released_;
  std::set<std::string> led_ GUARDED_BY(mu_);
};

}  // namespace scoop

#endif  // SCOOP_CACHE_SINGLEFLIGHT_H_
