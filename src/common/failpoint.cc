#include "common/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <thread>

namespace scoop {

namespace failpoint_detail {
std::atomic<int> g_armed{0};
}  // namespace failpoint_detail

namespace {

// FNV-1a over the site name, mixed into the global seed so each site gets
// an independent deterministic stream.
uint64_t DeriveSeed(uint64_t global_seed, std::string_view name) {
  uint64_t h = 14695981039346656037ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  // splitmix64 finalizer keeps low-entropy combinations apart.
  uint64_t z = h ^ global_seed;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t ReadGlobalSeed() {
  const char* env = std::getenv("SCOOP_FAILPOINT_SEED");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end != nullptr && *end == '\0') return static_cast<uint64_t>(v);
  }
  return Failpoints::kDefaultSeed;
}

// Sleeps outside any lock scope; scoop_check bans blocking under MutexLock.
void ApplyLatency(int64_t latency_us) {
  if (latency_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
  }
}

}  // namespace

Failpoints::Failpoints() : global_seed_(ReadGlobalSeed()) {}

Failpoints& Failpoints::Global() {
  static Failpoints* instance = new Failpoints();
  return *instance;
}

bool Failpoints::KnownSite(std::string_view name) {
  for (const char* site : kFailpointSites) {
    if (name == site) return true;
  }
  return false;
}

Status Failpoints::Arm(std::string_view name, FailpointSpec spec) {
  if (!KnownSite(name)) {
    return Status::InvalidArgument("unknown failpoint: " + std::string(name));
  }
  uint64_t seed =
      spec.seed != 0 ? spec.seed : DeriveSeed(global_seed_, name);
  MutexLock lock(mu_);
  auto [it, inserted] = armed_.insert_or_assign(
      std::string(name), Armed{std::move(spec), Rng(seed)});
  (void)it;
  if (inserted) {
    failpoint_detail::g_armed.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

void Failpoints::Disarm(std::string_view name) {
  MutexLock lock(mu_);
  auto it = armed_.find(name);
  if (it != armed_.end()) {
    armed_.erase(it);
    failpoint_detail::g_armed.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Failpoints::DisarmAll() {
  MutexLock lock(mu_);
  failpoint_detail::g_armed.fetch_sub(static_cast<int>(armed_.size()),
                                      std::memory_order_relaxed);
  armed_.clear();
}

std::vector<std::string> Failpoints::ArmedSites() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(armed_.size());
  for (const auto& [name, state] : armed_) out.push_back(name);
  return out;
}

void Failpoints::SetFaultCounter(Counter* counter) {
  MutexLock lock(mu_);
  fault_counter_ = counter;
}

void Failpoints::ClearFaultCounter(Counter* counter) {
  MutexLock lock(mu_);
  if (fault_counter_ == counter) fault_counter_ = nullptr;
}

int64_t Failpoints::hits(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = armed_.find(name);
  return it == armed_.end() ? 0 : it->second.hits;
}

int64_t Failpoints::fires(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = armed_.find(name);
  return it == armed_.end() ? 0 : it->second.fires;
}

bool Failpoints::Fire(std::string_view name, std::string_view key,
                      FailpointSpec* out, uint64_t* corrupt_draw) {
  Counter* counter = nullptr;
  bool fired = false;
  {
    MutexLock lock(mu_);
    auto it = armed_.find(name);
    if (it == armed_.end()) return false;
    Armed& armed = it->second;
    if (!armed.spec.key.empty() && armed.spec.key != key) return false;
    armed.hits++;
    if (armed.hits <= armed.spec.skip) return false;
    if (armed.spec.max_fires >= 0 && armed.fires >= armed.spec.max_fires) {
      return false;
    }
    if (armed.spec.probability < 1.0 &&
        !armed.rng.NextBool(armed.spec.probability)) {
      return false;
    }
    armed.fires++;
    *out = armed.spec;
    *corrupt_draw = armed.rng.Next();
    counter = fault_counter_;
    fired = true;
  }
  // Counter increments are atomic; do them outside the registry lock so a
  // site firing under a device lock never orders kFailpoint before kMetrics.
  total_fires_.fetch_add(1, std::memory_order_relaxed);
  if (counter != nullptr) counter->Increment();
  return fired;
}

Status Failpoints::Check(std::string_view name, std::string_view key) {
  FailpointSpec spec;
  uint64_t draw = 0;
  if (!Fire(name, key, &spec, &draw)) return Status::OK();
  switch (spec.action) {
    case FailpointSpec::Action::kLatency:
      ApplyLatency(spec.latency_us);
      return Status::OK();
    case FailpointSpec::Action::kError:
    case FailpointSpec::Action::kCorrupt:
    case FailpointSpec::Action::kDrop:
      ApplyLatency(spec.latency_us);
      return spec.error;
  }
  return Status::OK();
}

DataFaultKind Failpoints::CheckData(std::string_view name,
                                    std::string_view key, char* data,
                                    size_t len, size_t* keep_len,
                                    Status* error) {
  *keep_len = len;
  FailpointSpec spec;
  uint64_t draw = 0;
  if (!Fire(name, key, &spec, &draw)) return DataFaultKind::kNone;
  ApplyLatency(spec.latency_us);
  switch (spec.action) {
    case FailpointSpec::Action::kLatency:
      return DataFaultKind::kNone;
    case FailpointSpec::Action::kError:
      *error = spec.error;
      return DataFaultKind::kError;
    case FailpointSpec::Action::kCorrupt: {
      if (len == 0) {
        *error = spec.error;
        return DataFaultKind::kError;
      }
      // Flip a deterministic handful of bytes at seeded positions.
      uint64_t x = draw;
      size_t flips = 1 + static_cast<size_t>(x % 3);
      for (size_t i = 0; i < flips; i++) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        data[x % len] ^= static_cast<char>(0x5a + i);
      }
      return DataFaultKind::kCorrupted;
    }
    case FailpointSpec::Action::kDrop: {
      *keep_len = len / 2;
      *error = spec.error;
      return DataFaultKind::kDrop;
    }
  }
  return DataFaultKind::kNone;
}

}  // namespace scoop
