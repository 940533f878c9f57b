// The proxy-tier pushdown result cache. Analytic workloads are dominated
// by repeated scans over slowly-changing objects, yet every repeated
// pushdown query re-burns the storage-side CPU the paper shows is the
// scarce resource (PAPER.md fig10). ResultCache keeps the *filtered*
// response bytes — the storlet's output, usually a small fraction of the
// object — keyed by (object path, ETag, canonical query fingerprint), so
// a hot repeated query becomes a memory-speed read and any PUT/overwrite
// invalidates naturally because the ETag changes.
//
// Sharding: entries are placed by a hash of the *object path*, not the
// full key, so every cached result of one object lives in a single shard
// and InvalidateObject touches exactly one shard lock.
//
// Locking contract (DESIGN.md §3g): each shard has its own Mutex (rank
// lockrank::kCacheShard, leaf — nothing else is ever acquired under it);
// two shards are never held together. Hit bodies are handed out as
// shared_ptr<const std::string> and served zero-copy; eviction cannot
// invalidate an in-flight hit.
#ifndef SCOOP_CACHE_RESULT_CACHE_H_
#define SCOOP_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/sync.h"
#include "objectstore/http.h"

namespace scoop {

// Shape of the proxy-tier result cache (`ScoopCluster::Create`).
struct ResultCacheConfig {
  // Master switch. Off by default: the middleware is always installed but
  // passes straight through, so the cache can be switched on and off at
  // runtime (`ResultCache::set_enabled`).
  bool enabled = false;
  // Total bytes of cached response bodies across all shards.
  size_t byte_budget = 64ull << 20;
  // Number of LRU shards (>= 1); each gets byte_budget / shards.
  int shards = 8;
  // Largest single result admitted; 0 derives byte_budget / 8 (still
  // clamped to the per-shard budget).
  size_t max_entry_bytes = 0;
};

// One cached pushdown response: the status/headers as the uncached path
// would return them (trailers already merged) plus the full body.
struct CachedResult {
  int status = 200;
  Headers headers;
  std::shared_ptr<const std::string> body;
};

// Sharded, byte-budgeted LRU over CachedResult. Thread-safe; metrics:
// cache.hits / cache.misses / cache.coalesced / cache.evictions /
// cache.invalidations counters, cache.bytes gauge, cache.lookup_us
// histogram (METRICS.md).
class ResultCache {
 public:
  ResultCache(const ResultCacheConfig& config, MetricRegistry* metrics);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Exact-match lookup; promotes the entry to most-recently-used. Counts
  // a hit or a miss and times itself into cache.lookup_us. Returns
  // nullopt when disabled.
  std::optional<CachedResult> Lookup(const std::string& key);

  // The read of a caller that missed and then waited for a concurrent
  // identical request to fill `key` (cache/singleflight.h). A found entry
  // counts in cache.coalesced, not cache.hits; nothing found counts
  // nothing, since the caller's own Lookup already counted its miss.
  std::optional<CachedResult> LookupCoalesced(const std::string& key);

  // Admits a result under `key` for the object at `object_path`
  // ("/account/container/object" — decides the shard). Replaces an
  // existing entry for the same key and evicts LRU entries until the
  // shard fits its budget. Returns false (and caches nothing) when
  // disabled or the entry exceeds max_entry_bytes.
  bool Insert(const std::string& key, const std::string& object_path,
              CachedResult result);

  // Drops every entry cached for `object_path` (the PUT/DELETE hook);
  // returns how many entries were dropped. Runs even when disabled so a
  // disabled-then-reenabled cache cannot serve stale results.
  int64_t InvalidateObject(const std::string& object_path);

  // Drops everything (tests).
  void Clear();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  const ResultCacheConfig& config() const { return config_; }
  size_t max_entry_bytes() const { return max_entry_bytes_; }

  // Currently cached bytes (the cache.bytes gauge value).
  int64_t TotalBytes() const { return bytes_gauge_->value(); }

  // Builds the canonical cache key. Exposed for tests; the middleware is
  // the production caller.
  static std::string MakeKey(const std::string& object_path,
                             const std::string& etag,
                             const std::string& fingerprint);

 private:
  struct Entry {
    std::string object_path;
    CachedResult result;
    size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  struct Shard {
    // All shard mutexes share one rank; no two are ever held together.
    Mutex mu{"cache_shard", lockrank::kCacheShard};
    // Front = most recently used. Holds the map keys.
    std::list<std::string> lru GUARDED_BY(mu);
    std::unordered_map<std::string, Entry> entries GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const std::string& object_path);
  // Finds `key` and promotes it to most-recently-used; counts nothing.
  std::optional<CachedResult> Find(const std::string& key);
  // Drops one entry (found under the shard lock). Returns its byte size.
  static size_t EraseLocked(Shard& shard,
                            std::unordered_map<std::string, Entry>::iterator it)
      REQUIRES(shard.mu);
  static size_t EntryBytes(const std::string& key, const CachedResult& result);

  const ResultCacheConfig config_;
  const size_t per_shard_budget_;
  const size_t max_entry_bytes_;
  std::atomic<bool> enabled_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Counter* hits_;
  Counter* misses_;
  Counter* coalesced_;
  Counter* evictions_;
  Counter* invalidations_;
  Gauge* bytes_gauge_;
  ExponentialHistogram* lookup_us_;
};

}  // namespace scoop

#endif  // SCOOP_CACHE_RESULT_CACHE_H_
