#include "cache/result_cache.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace scoop {

namespace {
// Separates the key components; never appears in paths, ETags (hex) or
// the canonical fingerprint (header names/values).
constexpr char kKeySep = '\x1f';
}  // namespace

std::string ResultCache::MakeKey(const std::string& object_path,
                                 const std::string& etag,
                                 const std::string& fingerprint) {
  std::string key;
  key.reserve(object_path.size() + etag.size() + fingerprint.size() + 2);
  key.append(object_path);
  key.push_back(kKeySep);
  key.append(etag);
  key.push_back(kKeySep);
  key.append(fingerprint);
  return key;
}

ResultCache::ResultCache(const ResultCacheConfig& config,
                         MetricRegistry* metrics)
    : config_(config),
      per_shard_budget_(config.byte_budget /
                        static_cast<size_t>(std::max(config.shards, 1))),
      max_entry_bytes_(std::min(
          config.max_entry_bytes > 0 ? config.max_entry_bytes
                                     : config.byte_budget / 8,
          per_shard_budget_)),
      enabled_(config.enabled),
      hits_(metrics->GetCounter("cache.hits")),
      misses_(metrics->GetCounter("cache.misses")),
      coalesced_(metrics->GetCounter("cache.coalesced")),
      evictions_(metrics->GetCounter("cache.evictions")),
      invalidations_(metrics->GetCounter("cache.invalidations")),
      bytes_gauge_(metrics->GetGauge("cache.bytes")),
      lookup_us_(metrics->GetHistogram("cache.lookup_us")) {
  int shards = std::max(config.shards, 1);
  shards_.reserve(shards);
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& object_path) {
  return *shards_[Fnv1a64(object_path) % shards_.size()];
}

size_t ResultCache::EntryBytes(const std::string& key,
                               const CachedResult& result) {
  size_t bytes = key.size();
  if (result.body) bytes += result.body->size();
  for (const auto& [name, value] : result.headers) {
    bytes += name.size() + value.size();
  }
  return bytes;
}

size_t ResultCache::EraseLocked(
    Shard& shard, std::unordered_map<std::string, Entry>::iterator it) {
  size_t bytes = it->second.bytes;
  shard.lru.erase(it->second.lru_it);
  shard.bytes -= bytes;
  shard.entries.erase(it);
  return bytes;
}

std::optional<CachedResult> ResultCache::Find(const std::string& key) {
  if (!enabled()) return std::nullopt;
  // The key embeds the object path as its first component, so hashing
  // the path prefix and hashing via ShardFor agree.
  Shard& shard = ShardFor(key.substr(0, key.find(kKeySep)));
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.result;
}

std::optional<CachedResult> ResultCache::Lookup(const std::string& key) {
  if (!enabled()) return std::nullopt;
  Stopwatch watch;
  std::optional<CachedResult> out = Find(key);
  lookup_us_->Record(static_cast<int64_t>(watch.ElapsedSeconds() * 1e6));
  (out ? hits_ : misses_)->Increment();
  return out;
}

std::optional<CachedResult> ResultCache::LookupCoalesced(
    const std::string& key) {
  std::optional<CachedResult> out = Find(key);
  if (out) coalesced_->Increment();
  return out;
}

bool ResultCache::Insert(const std::string& key,
                         const std::string& object_path, CachedResult result) {
  if (!enabled()) return false;
  size_t bytes = EntryBytes(key, result);
  if (bytes > max_entry_bytes_) return false;

  int64_t evicted = 0;
  int64_t delta = 0;
  {
    Shard& shard = ShardFor(object_path);
    MutexLock lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      delta -= static_cast<int64_t>(EraseLocked(shard, it));
    }
    while (!shard.lru.empty() && shard.bytes + bytes > per_shard_budget_) {
      auto victim = shard.entries.find(shard.lru.back());
      delta -= static_cast<int64_t>(EraseLocked(shard, victim));
      ++evicted;
    }
    shard.lru.push_front(key);
    Entry entry;
    entry.object_path = object_path;
    entry.result = std::move(result);
    entry.bytes = bytes;
    entry.lru_it = shard.lru.begin();
    shard.entries.emplace(key, std::move(entry));
    shard.bytes += bytes;
    delta += static_cast<int64_t>(bytes);
  }
  bytes_gauge_->Add(delta);
  if (evicted > 0) evictions_->Add(evicted);
  return true;
}

int64_t ResultCache::InvalidateObject(const std::string& object_path) {
  int64_t dropped = 0;
  int64_t delta = 0;
  {
    Shard& shard = ShardFor(object_path);
    MutexLock lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->second.object_path == object_path) {
        delta -= static_cast<int64_t>(EraseLocked(shard, it++));
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  if (dropped > 0) {
    bytes_gauge_->Add(delta);
    invalidations_->Add(dropped);
  }
  return dropped;
}

void ResultCache::Clear() {
  int64_t delta = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    delta -= static_cast<int64_t>(shard->bytes);
    shard->entries.clear();
    shard->lru.clear();
    shard->bytes = 0;
  }
  if (delta != 0) bytes_gauge_->Add(delta);
}

}  // namespace scoop
