#include "cache/singleflight.h"

namespace scoop {

Singleflight::Lead::~Lead() { owner_->Release(key_); }

std::unique_ptr<Singleflight::Lead> Singleflight::Join(const std::string& key) {
  MutexLock lock(mu_);
  if (led_.insert(key).second) {
    return std::unique_ptr<Lead>(new Lead(this, key));
  }
  const auto deadline = std::chrono::steady_clock::now() + max_wait_;
  while (led_.count(key) != 0) {
    const auto left = deadline - std::chrono::steady_clock::now();
    if (left <= std::chrono::steady_clock::duration::zero()) break;
    released_.WaitFor(mu_, left);
  }
  return nullptr;
}

void Singleflight::Release(const std::string& key) {
  {
    MutexLock lock(mu_);
    led_.erase(key);
  }
  released_.NotifyAll();
}

}  // namespace scoop
