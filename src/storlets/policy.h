// Administrator-facing pushdown policy (paper §II/§VII): per
// account/container, whether pushdown is allowed, which storlets may
// run, and at which stage (object node vs proxy, §V-A). Locking per
// DESIGN.md §3d (rank lockrank::kPolicy, leaf).
#ifndef SCOOP_STORLETS_POLICY_H_
#define SCOOP_STORLETS_POLICY_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sync.h"

namespace scoop {

// Where in the data path a pushdown filter runs (paper §V-A: staging
// execution control). Object-node execution avoids shipping the whole
// object to a proxy and enjoys the larger object-server pool.
enum class ExecutionStage { kObjectNode, kProxy };

// Per-tenant/container pushdown policy, managed by administrators via
// simple policies (paper §II / §VII). A request may only invoke storlets
// the policy allows, at the stage the policy dictates.
struct StorletPolicy {
  bool pushdown_enabled = true;
  ExecutionStage stage = ExecutionStage::kObjectNode;
  // Names of storlets this scope may run; empty means "any deployed".
  std::vector<std::string> allowed_storlets;
};

// Policy resolution: container-level overrides account-level overrides the
// cluster default.
//
// Locking contract: `mu_` (rank lockrank::kPolicy) guards the default and
// both override maps; Resolve copies the effective policy out under it.
// Leaf lock.
class PolicyStore {
 public:
  void SetDefault(StorletPolicy policy);
  void SetAccountPolicy(const std::string& account, StorletPolicy policy);
  void SetContainerPolicy(const std::string& account,
                          const std::string& container, StorletPolicy policy);
  void ClearContainerPolicy(const std::string& account,
                            const std::string& container);

  // Effective policy for a request against account/container.
  StorletPolicy Resolve(const std::string& account,
                        const std::string& container) const;

  // True when `storlet` may run under `policy`.
  static bool Allows(const StorletPolicy& policy, const std::string& storlet);

 private:
  mutable Mutex mu_{"policy_store", lockrank::kPolicy};
  StorletPolicy default_policy_ GUARDED_BY(mu_);
  std::map<std::string, StorletPolicy> account_policies_ GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, StorletPolicy>
      container_policies_ GUARDED_BY(mu_);
};

}  // namespace scoop

#endif  // SCOOP_STORLETS_POLICY_H_
