#include "storlets/policy.h"

#include <algorithm>

namespace scoop {

void PolicyStore::SetDefault(StorletPolicy policy) {
  MutexLock lock(mu_);
  default_policy_ = std::move(policy);
}

void PolicyStore::SetAccountPolicy(const std::string& account,
                                   StorletPolicy policy) {
  MutexLock lock(mu_);
  account_policies_[account] = std::move(policy);
}

void PolicyStore::SetContainerPolicy(const std::string& account,
                                     const std::string& container,
                                     StorletPolicy policy) {
  MutexLock lock(mu_);
  container_policies_[{account, container}] = std::move(policy);
}

void PolicyStore::ClearContainerPolicy(const std::string& account,
                                       const std::string& container) {
  MutexLock lock(mu_);
  container_policies_.erase({account, container});
}

StorletPolicy PolicyStore::Resolve(const std::string& account,
                                   const std::string& container) const {
  MutexLock lock(mu_);
  auto cit = container_policies_.find({account, container});
  if (cit != container_policies_.end()) return cit->second;
  auto ait = account_policies_.find(account);
  if (ait != account_policies_.end()) return ait->second;
  return default_policy_;
}

bool PolicyStore::Allows(const StorletPolicy& policy,
                         const std::string& storlet) {
  if (!policy.pushdown_enabled) return false;
  if (policy.allowed_storlets.empty()) return true;
  return std::find(policy.allowed_storlets.begin(),
                   policy.allowed_storlets.end(),
                   storlet) != policy.allowed_storlets.end();
}

}  // namespace scoop
