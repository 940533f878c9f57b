// Multi-tenant QoS (DESIGN.md §3k): per-tenant token-bucket admission at
// the proxy, a weighted fair queue in front of storlet invocations, and
// deadline-aware load shedding with a graceful ladder — a throttled
// pushdown GET degrades to a plain GET (the client's PR-3 fallback path
// filters locally, byte-identical results) before anything is refused
// with a 503 + Retry-After.
//
// Locking contract (DESIGN.md §3d): `mu_` (rank lockrank::kQosTenants)
// guards the per-tenant bucket map; `qmu_` (rank lockrank::kQosQueue)
// guards the fair-queue waiter set and dispatch slots. Both are leaf
// locks — no other Mutex is ever acquired while either is held, and the
// queue-delay EWMA crosses between them as a lock-free atomic.
#ifndef SCOOP_QOS_QOS_H_
#define SCOOP_QOS_QOS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/result.h"
#include "common/sync.h"
#include "objectstore/auth.h"

namespace scoop {
namespace qos {

// Bucket/queue envelope of one service tier. Rates are per proxy (each
// QosController arbitrates one proxy process).
struct QosTierLimits {
  double rate_per_s = 200.0;  // token refill rate
  double burst = 50.0;        // bucket capacity
  double weight = 4.0;        // fair-queue share
  int max_queue_depth = 16;   // storlet invocations queued per tenant
};

struct QosConfig {
  bool enabled = false;
  QosTierLimits gold{400.0, 100.0, 8.0, 32};
  QosTierLimits bronze{100.0, 25.0, 1.0, 8};
  // Tokens a storlet-bearing GET costs vs. 1 for a plain request; the gap
  // is the degrade rung of the shed ladder: a tenant too broke for
  // pushdown may still afford the raw bytes.
  double pushdown_cost = 4.0;
  // Concurrent storlet pipelines dispatched across all tenants.
  int storlet_concurrency = 4;
  // Applied when a request carries no X-Scoop-Deadline-Us (0 = none).
  int64_t default_deadline_us = 0;
  // Queue-delay EWMA smoothing factor.
  double ewma_alpha = 0.2;
  // Hard cap on one fair-queue wait; a slot not granted by then is
  // denied (the caller degrades, it does not hang).
  int64_t max_queue_wait_us = 2'000'000;
  // EWMA above this puts bronze pushdown GETs on the degrade rung: bronze
  // tenants are served raw until the queue drains, gold keeps pushdown
  // (§VII).
  int64_t overload_queue_us = 50'000;
};

// What admission decided for one request.
enum class AdmitDecision { kAdmit, kDegrade, kShed };

struct AdmitResult {
  AdmitDecision decision = AdmitDecision::kAdmit;
  // On kShed: when the bucket will afford a plain request again.
  int64_t retry_after_ms = 0;
};

class QosController;

// RAII fair-queue slot: holding one is the right to run one storlet
// pipeline. Released on destruction — the engine parks it in the
// PipelineRun so the slot is held until the response stream drains.
class QosTicket {
 public:
  explicit QosTicket(QosController* controller) : controller_(controller) {}
  ~QosTicket();

  QosTicket(const QosTicket&) = delete;
  QosTicket& operator=(const QosTicket&) = delete;

 private:
  QosController* controller_;
};

// One proxy's QoS brain: token buckets keyed by authenticated account,
// a virtual-time weighted fair queue for storlet dispatch, and the
// queue-delay EWMA that drives the deadline and bronze-overload degrade
// rungs. With the fair queue's slot refusal, it is the only runtime
// switch that turns pushdown off for a request. Thread-safe.
class QosController {
 public:
  QosController(QosConfig config, MetricRegistry* metrics);

  const QosConfig& config() const { return config_; }

  // Token-bucket admission for one request. `pushdown` marks a
  // storlet-bearing GET (eligible for the degrade rung); `deadline_us` is
  // the request's latency budget (<=0: none). The shed ladder:
  //   admit    — bucket affords the full cost and the EWMA predicts the
  //              deadline holds;
  //   degrade  — pushdown only: predicted deadline miss, a bronze
  //              tenant while overloaded(), or bucket affords a plain
  //              request but not pushdown; charged the plain price;
  //   shed     — bucket cannot afford even a plain request; the result
  //              carries the refill-time Retry-After hint.
  // `forced_degrade` is the qos.admit failpoint hook: an armed fault
  // throttles the request as if the bucket were short.
  AdmitResult Admit(const std::string& account, TenantTier tier,
                    bool pushdown, int64_t deadline_us,
                    bool forced_degrade = false);

  // Blocks in the weighted fair queue until a storlet dispatch slot is
  // granted (virtual-time order, tier weight) and returns the ticket
  // holding it. Errors instead of blocking forever:
  //   ResourceExhausted — per-tenant queue depth exceeded, or the
  //                       qos.queue failpoint fired;
  //   DeadlineExceeded  — no slot within max_queue_wait_us.
  // Callers treat any error as "degrade to a plain read".
  Result<std::shared_ptr<QosTicket>> AcquireStorletSlot(
      const std::string& account);

  // Smoothed fair-queue wait in microseconds.
  int64_t QueueEwmaUs() const;

  // True while the queue-delay EWMA exceeds overload_queue_us; bronze
  // pushdown GETs admitted meanwhile take the degrade rung.
  bool overloaded() const { return QueueEwmaUs() > config_.overload_queue_us; }

  // Per-tenant counters + global queue state as a JSON object (the
  // /__scoop/qos admin endpoint and `scoop_cli qos`).
  std::string ToJson() const;

 private:
  friend class QosTicket;

  struct TenantState {
    TenantTier tier = TenantTier::kGold;
    double tokens = 0.0;
    bool initialized = false;
    std::chrono::steady_clock::time_point last_refill;
    // Lifetime decision counters (admin visibility).
    int64_t admitted = 0;
    int64_t degraded = 0;
    int64_t shed = 0;
    int64_t queue_rejects = 0;
  };

  // Per-tenant fair-queue bookkeeping.
  struct TenantQueue {
    double last_finish_tag = 0.0;  // virtual finish time of the last enqueue
    int queued = 0;
  };

  const QosTierLimits& Limits(TenantTier tier) const {
    return tier == TenantTier::kBronze ? config_.bronze : config_.gold;
  }

  // Refills `state`'s bucket for the wall time since its last refill.
  void Refill(TenantState* state) REQUIRES(mu_);

  // Folds one observed queue wait into the EWMA (lock-free).
  void RecordQueueWait(int64_t wait_us);

  void ReleaseSlot();

  const QosConfig config_;

  Counter* admitted_ = nullptr;        // UNGUARDED: atomic metric handle
  Counter* degrades_ = nullptr;        // UNGUARDED: atomic metric handle
  Counter* sheds_ = nullptr;           // UNGUARDED: atomic metric handle
  Counter* queue_rejects_ = nullptr;   // UNGUARDED: atomic metric handle
  Counter* queue_timeouts_ = nullptr;  // UNGUARDED: atomic metric handle
  Gauge* queued_ = nullptr;            // UNGUARDED: atomic metric handle
  ExponentialHistogram* queue_us_ = nullptr;  // UNGUARDED: atomic handle

  // Queue-delay EWMA in microseconds; written by dispatching waiters
  // under no lock (CAS loop), read by admission.
  std::atomic<int64_t> queue_ewma_us_{0};  // UNGUARDED: atomic

  mutable Mutex mu_{"qos_tenants", lockrank::kQosTenants};
  std::map<std::string, TenantState> tenants_ GUARDED_BY(mu_);

  mutable Mutex qmu_{"qos_queue", lockrank::kQosQueue};
  CondVar qcv_;  // UNGUARDED: CondVar pairs with qmu_
  // Waiters ordered by (virtual finish tag, enqueue seq); the head is
  // dispatched next.
  std::set<std::pair<double, uint64_t>> waiters_ GUARDED_BY(qmu_);
  std::map<std::string, TenantQueue> tenant_queues_ GUARDED_BY(qmu_);
  double virtual_time_ GUARDED_BY(qmu_) = 0.0;
  uint64_t enqueue_seq_ GUARDED_BY(qmu_) = 0;
  int active_slots_ GUARDED_BY(qmu_) = 0;
};

}  // namespace qos
}  // namespace scoop

#endif  // SCOOP_QOS_QOS_H_
