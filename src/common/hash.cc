#include "common/hash.h"

#include <bit>
#include <cstddef>
#include <cstring>

namespace scoop {

namespace {

constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ULL;

// Little-endian word load through memcpy: no alignment or aliasing
// assumptions, and one plain load on little-endian targets.
template <typename T>
T LoadLe(const unsigned char* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (size_t i = sizeof(T); i-- > 0;) v = (v << 8) | p[i];
  }
  return v;
}

uint64_t XxRound(uint64_t acc, uint64_t input) {
  acc += input * kXxPrime2;
  acc = std::rotl(acc, 31);
  return acc * kXxPrime1;
}

uint64_t XxMergeRound(uint64_t acc, uint64_t lane) {
  acc ^= XxRound(0, lane);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t Xxh64(std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  const unsigned char* const end = p + data.size();
  uint64_t h = kXxPrime5;
  if (data.size() >= 32) {
    uint64_t v1 = kXxPrime1 + kXxPrime2;
    uint64_t v2 = kXxPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kXxPrime1;
    const unsigned char* const limit = end - 32;
    do {
      v1 = XxRound(v1, LoadLe<uint64_t>(p));
      v2 = XxRound(v2, LoadLe<uint64_t>(p + 8));
      v3 = XxRound(v3, LoadLe<uint64_t>(p + 16));
      v4 = XxRound(v4, LoadLe<uint64_t>(p + 24));
      p += 32;
    } while (p <= limit);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = XxMergeRound(h, v1);
    h = XxMergeRound(h, v2);
    h = XxMergeRound(h, v3);
    h = XxMergeRound(h, v4);
  }
  h += static_cast<uint64_t>(data.size());
  for (; end - p >= 8; p += 8) {
    h ^= XxRound(0, LoadLe<uint64_t>(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<uint64_t>(LoadLe<uint32_t>(p)) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<uint64_t>(*p) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
  }
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace scoop
