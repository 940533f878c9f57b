// Token authentication for the Swift-like store (the tempauth role):
// tenants register with a key, exchange it for a bearer token, and every
// request is validated against the account the token scopes to. Locking
// follows the annotated model of DESIGN.md §3d (rank lockrank::kAuth).
#ifndef SCOOP_OBJECTSTORE_AUTH_H_
#define SCOOP_OBJECTSTORE_AUTH_H_

#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/sync.h"
#include "objectstore/middleware.h"

namespace scoop {

inline constexpr char kAuthTokenHeader[] = "X-Auth-Token";

// Stamped (never trusted from the client) by AuthMiddleware after token
// validation: the authenticated account's service tier, so downstream
// QoS admission needs no auth lookup.
inline constexpr char kTenantTierHeader[] = "X-Scoop-Tenant-Tier";

// Service tier of a tenant; §VII's adaptive-pushdown discussion lets
// administrators reserve pushdown for "gold" tenants under load.
enum class TenantTier { kGold, kBronze };

// "gold" / "bronze".
std::string_view TenantTierName(TenantTier tier);

// Parses a tier name; anything unrecognized is kGold (fail open: a
// missing or mangled stamp must not demote a tenant).
TenantTier ParseTenantTier(std::string_view name);

// Keystone-lite identity service: tenants authenticate with a secret key
// and receive a bearer token scoped to their account.
//
// Locking contract: `mu_` (rank lockrank::kAuth) guards every table and
// the token sequence; each public method is one critical section. Leaf
// lock — token validation in the middleware never nests another Mutex.
class AuthService {
 public:
  // Registers `tenant` with secret `key`, owning account `account`.
  Status RegisterTenant(const std::string& tenant, const std::string& key,
                        const std::string& account,
                        TenantTier tier = TenantTier::kGold);

  // Returns a token when `key` matches the registered secret.
  Result<std::string> IssueToken(const std::string& tenant,
                                 const std::string& key);

  // Maps a token back to the account it is scoped to.
  Result<std::string> ValidateToken(const std::string& token) const;

  Result<TenantTier> GetTier(const std::string& account) const;
  Status SetTier(const std::string& account, TenantTier tier);

 private:
  struct TenantInfo {
    std::string key;
    std::string account;
    TenantTier tier;
  };

  mutable Mutex mu_{"auth", lockrank::kAuth};
  // Keyed by tenant name.
  std::map<std::string, TenantInfo> tenants_ GUARDED_BY(mu_);
  // token -> account
  std::map<std::string, std::string> tokens_ GUARDED_BY(mu_);
  // account -> tier
  std::map<std::string, TenantTier> account_tier_ GUARDED_BY(mu_);
  uint64_t token_seq_ GUARDED_BY(mu_) = 0;
};

// Proxy middleware enforcing that every request carries a valid token for
// the account named in its path (Swift's authorization step, §III-B).
class AuthMiddleware : public Middleware {
 public:
  explicit AuthMiddleware(std::shared_ptr<AuthService> auth)
      : auth_(std::move(auth)) {}

  std::string name() const override { return "auth"; }
  HttpResponse Process(Request& request, const HttpHandler& next) override;

 private:
  std::shared_ptr<AuthService> auth_;
};

}  // namespace scoop

#endif  // SCOOP_OBJECTSTORE_AUTH_H_
