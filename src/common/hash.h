#ifndef SCOOP_COMMON_HASH_H_
#define SCOOP_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace scoop {

// 64-bit FNV-1a over an arbitrary byte string. A byte-serial multiply chain:
// fine for short keys, slow for payloads. Used for ring placement, cache
// shards, proxy retry jitter, auth tokens and Value::Hash; stable across
// platforms and runs, so changing it would move placements and seeded
// schedules.
uint64_t Fnv1a64(std::string_view data);

// XXH64 (seed 0) over an arbitrary byte string: four independent 64-bit
// lanes, so it runs near memory speed on payloads. Used for the per-chunk
// integrity hashes of stored objects and for their ETags. Input is read as
// little-endian words on every platform, so values are portable.
uint64_t Xxh64(std::string_view data);

// Strong 64-bit finalizer (MurmurHash3 fmix64). Good avalanche; used to
// decorrelate sequential ids before ring placement.
uint64_t Mix64(uint64_t x);

// Combines two hashes (boost-style).
uint64_t HashCombine(uint64_t a, uint64_t b);

}  // namespace scoop

#endif  // SCOOP_COMMON_HASH_H_
