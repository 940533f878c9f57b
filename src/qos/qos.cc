#include "qos/qos.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/failpoint.h"
#include "common/strings.h"

namespace scoop {
namespace qos {

namespace {

// Minimal JSON string escaping for account names (quotes + backslashes;
// accounts are plain tokens in practice).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

QosTicket::~QosTicket() { controller_->ReleaseSlot(); }

QosController::QosController(QosConfig config, MetricRegistry* metrics)
    : config_(config) {
  if (metrics != nullptr) {
    admitted_ = metrics->GetCounter("qos.admitted");
    degrades_ = metrics->GetCounter("qos.degrades");
    sheds_ = metrics->GetCounter("qos.sheds");
    queue_rejects_ = metrics->GetCounter("qos.queue_rejects");
    queue_timeouts_ = metrics->GetCounter("qos.queue_timeouts");
    queued_ = metrics->GetGauge("qos.queued");
    queue_us_ = metrics->GetHistogram("qos.queue_us");
  }
}

void QosController::Refill(TenantState* state) {
  const QosTierLimits& limits = Limits(state->tier);
  auto now = std::chrono::steady_clock::now();
  double dt = std::chrono::duration<double>(now - state->last_refill).count();
  if (dt > 0) {
    state->tokens = std::min(limits.burst,
                             state->tokens + dt * limits.rate_per_s);
  }
  state->last_refill = now;
}

AdmitResult QosController::Admit(const std::string& account, TenantTier tier,
                                 bool pushdown, int64_t deadline_us,
                                 bool forced_degrade) {
  const QosTierLimits& limits = Limits(tier);
  // Queue-delay rungs, both served raw (the client filters locally, same
  // result): when the smoothed fair-queue wait already exceeds the
  // request's budget, running the storlet would blow the deadline; and
  // while the queue is overloaded, storlet slots are kept for gold
  // tenants (§VII), so bronze pushdown falls back to plain reads.
  bool throttle_pushdown =
      pushdown && (forced_degrade ||
                   (deadline_us > 0 && QueueEwmaUs() > deadline_us) ||
                   (tier == TenantTier::kBronze && overloaded()));
  AdmitResult result;
  {
    MutexLock lock(mu_);
    TenantState& state = tenants_[account];
    if (!state.initialized) {
      state.initialized = true;
      state.tokens = limits.burst;
      state.last_refill = std::chrono::steady_clock::now();
    }
    state.tier = tier;
    Refill(&state);
    double cost = pushdown ? config_.pushdown_cost : 1.0;
    if (!throttle_pushdown && state.tokens >= cost) {
      state.tokens -= cost;
      ++state.admitted;
      result.decision = AdmitDecision::kAdmit;
    } else if (pushdown && state.tokens >= 1.0) {
      // Degrade rung: not enough for pushdown (or pushdown throttled),
      // but the raw bytes are still affordable.
      state.tokens -= 1.0;
      ++state.degraded;
      result.decision = AdmitDecision::kDegrade;
    } else {
      ++state.shed;
      result.decision = AdmitDecision::kShed;
      double deficit = 1.0 - state.tokens;
      double wait_s =
          limits.rate_per_s > 0 ? deficit / limits.rate_per_s : 1.0;
      result.retry_after_ms = std::max<int64_t>(
          1, static_cast<int64_t>(std::ceil(wait_s * 1000.0)));
    }
  }
  switch (result.decision) {
    case AdmitDecision::kAdmit:
      if (admitted_ != nullptr) admitted_->Increment();
      break;
    case AdmitDecision::kDegrade:
      if (degrades_ != nullptr) degrades_->Increment();
      break;
    case AdmitDecision::kShed:
      if (sheds_ != nullptr) sheds_->Increment();
      break;
  }
  return result;
}

Result<std::shared_ptr<QosTicket>> QosController::AcquireStorletSlot(
    const std::string& account) {
  // Chaos hook: an armed fault denies the slot, which callers absorb by
  // degrading to a plain read — never by failing the request.
  Status fault = FailpointCheck("qos.queue", account);
  if (!fault.ok()) {
    if (queue_rejects_ != nullptr) queue_rejects_->Increment();
    return Status::ResourceExhausted("qos.queue fault: " + fault.message());
  }
  TenantTier tier = TenantTier::kGold;
  {
    MutexLock lock(mu_);
    auto it = tenants_.find(account);
    if (it != tenants_.end()) tier = it->second.tier;
  }
  const QosTierLimits& limits = Limits(tier);

  Stopwatch wait;
  bool rejected = false;
  bool timed_out = false;
  {
    MutexLock lock(qmu_);
    TenantQueue& tq = tenant_queues_[account];
    if (tq.queued >= limits.max_queue_depth) {
      rejected = true;
    } else {
      // Virtual-time weighted fair queuing: each enqueue advances the
      // tenant's finish tag by 1/weight past max(global virtual time,
      // its own last tag); waiters dispatch in finish-tag order, so a
      // tenant with weight w gets a w-proportional share of slots while
      // an idle tenant's tag cannot bank credit from the past.
      uint64_t seq = ++enqueue_seq_;
      double finish = std::max(virtual_time_, tq.last_finish_tag) +
                      1.0 / std::max(limits.weight, 1e-9);
      tq.last_finish_tag = finish;
      std::pair<double, uint64_t> key{finish, seq};
      waiters_.insert(key);
      ++tq.queued;
      if (queued_ != nullptr) queued_->Add(1);
      auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(std::max<int64_t>(
              1, config_.max_queue_wait_us));
      while (active_slots_ >= config_.storlet_concurrency ||
             *waiters_.begin() != key) {
        auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
          timed_out = true;
          break;
        }
        qcv_.WaitFor(qmu_, deadline - now);
      }
      waiters_.erase(key);
      --tq.queued;
      if (queued_ != nullptr) queued_->Add(-1);
      if (!timed_out) {
        virtual_time_ = std::max(virtual_time_, key.first);
        ++active_slots_;
      }
    }
  }
  // A removed head (timeout) or a freed position may unblock the next
  // waiter; waking outside the lock avoids a hurry-up-and-wait handoff.
  qcv_.NotifyAll();

  if (rejected) {
    if (queue_rejects_ != nullptr) queue_rejects_->Increment();
    MutexLock lock(mu_);
    ++tenants_[account].queue_rejects;
    return Status::ResourceExhausted("qos: tenant storlet queue full: " +
                                     account);
  }
  int64_t waited_us =
      static_cast<int64_t>(wait.ElapsedSeconds() * 1e6);
  RecordQueueWait(waited_us);
  if (timed_out) {
    if (queue_timeouts_ != nullptr) queue_timeouts_->Increment();
    return Status::DeadlineExceeded("qos: no storlet slot within " +
                                    std::to_string(config_.max_queue_wait_us) +
                                    "us");
  }
  return std::make_shared<QosTicket>(this);
}

void QosController::RecordQueueWait(int64_t wait_us) {
  if (queue_us_ != nullptr) queue_us_->Record(wait_us);
  int64_t seen = queue_ewma_us_.load(std::memory_order_relaxed);
  int64_t next;
  do {
    next = static_cast<int64_t>(config_.ewma_alpha * wait_us +
                                (1.0 - config_.ewma_alpha) * seen);
  } while (!queue_ewma_us_.compare_exchange_weak(seen, next,
                                                 std::memory_order_relaxed));
}

void QosController::ReleaseSlot() {
  {
    MutexLock lock(qmu_);
    --active_slots_;
  }
  qcv_.NotifyAll();
}

int64_t QosController::QueueEwmaUs() const {
  return queue_ewma_us_.load(std::memory_order_relaxed);
}

std::string QosController::ToJson() const {
  struct TenantSnap {
    std::string account;
    TenantState state;
    int queued = 0;
  };
  std::vector<TenantSnap> snaps;
  {
    MutexLock lock(mu_);
    snaps.reserve(tenants_.size());
    for (const auto& [account, state] : tenants_) {
      snaps.push_back(TenantSnap{account, state, 0});
    }
  }
  int active = 0;
  {
    MutexLock lock(qmu_);
    active = active_slots_;
    for (auto& snap : snaps) {
      auto it = tenant_queues_.find(snap.account);
      if (it != tenant_queues_.end()) snap.queued = it->second.queued;
    }
  }
  std::string out = StrFormat(
      "{\"enabled\":%s,\"queue_ewma_us\":%lld,\"active_slots\":%d,"
      "\"tenants\":{",
      config_.enabled ? "true" : "false",
      static_cast<long long>(QueueEwmaUs()), active);
  bool first = true;
  for (const auto& snap : snaps) {
    const QosTierLimits& limits = Limits(snap.state.tier);
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "\"%s\":{\"tier\":\"%s\",\"tokens\":%.2f,\"rate_per_s\":%.1f,"
        "\"burst\":%.1f,\"weight\":%.1f,\"admitted\":%lld,"
        "\"degraded\":%lld,\"shed\":%lld,\"queue_rejects\":%lld,"
        "\"queued\":%d}",
        JsonEscape(snap.account).c_str(),
        std::string(TenantTierName(snap.state.tier)).c_str(),
        snap.state.tokens, limits.rate_per_s, limits.burst, limits.weight,
        static_cast<long long>(snap.state.admitted),
        static_cast<long long>(snap.state.degraded),
        static_cast<long long>(snap.state.shed),
        static_cast<long long>(snap.state.queue_rejects), snap.queued);
  }
  out += "}}";
  return out;
}

}  // namespace qos
}  // namespace scoop
