// Adaptive pushdown (paper §VII): under storage load, "bronze" tenants
// fall back to traditional ingest while "gold" tenants keep the
// accelerated path. Queries keep returning identical results either way;
// only where the filtering happens changes.
//
// The switch is QoS admission (DESIGN.md §3k): while the storlet fair
// queue's smoothed wait exceeds `overload_queue_us`, a bronze pushdown GET
// takes the degrade rung — the store serves it raw and the client filters
// locally. Here a storlet job pinning every slot plays the load.
//
// The example also prints the optimizer's selectivity *estimate* for the
// pushed filter, the model §VII proposes for judging whether pushdown is
// worth its storage CPU.
//
//   build/examples/adaptive_pushdown
#include <cstdio>
#include <memory>
#include <vector>

#include "common/strings.h"
#include "scoop/scoop.h"
#include "sql/catalyst.h"
#include "sql/parser.h"
#include "workload/generator.h"

using namespace scoop;

namespace {

Result<std::unique_ptr<ScoopSession>> MakeTenant(
    ScoopCluster* cluster, const char* tenant, const char* account,
    TenantTier tier, const GridPocketGenerator& generator) {
  SCOOP_ASSIGN_OR_RETURN(SwiftClient client,
                         cluster->Connect(tenant, "key", account));
  SCOOP_RETURN_IF_ERROR(cluster->swift().auth().SetTier(account, tier));
  auto session =
      std::make_unique<ScoopSession>(cluster, std::move(client), 2);
  SCOOP_RETURN_IF_ERROR(
      generator.Upload(&session->client(), "meters", "m", 2));
  session->RegisterCsvTable("meters", "meters", "m",
                            GridPocketGenerator::MeterSchema(), true);
  return session;
}

// Storage load: a long-running job holds every storlet slot while one
// more invocation queues until it gives up. That wait enters the
// queue-delay EWMA. Returns false if the queued invocation got a slot.
bool PinStorletSlots(qos::QosController* qos) {
  std::vector<std::shared_ptr<qos::QosTicket>> held;
  for (int i = 0; i < qos->config().storlet_concurrency; ++i) {
    auto ticket = qos->AcquireStorletSlot("batch-job");
    if (!ticket.ok()) return false;
    held.push_back(std::move(ticket).value());
  }
  return !qos->AcquireStorletSlot("batch-job").ok();
}

}  // namespace

int main() {
  qos::QosConfig qos_config;
  qos_config.enabled = true;
  // A queued invocation gives up after 200 ms, and half of that wait
  // enters the EWMA: twice the 50 ms overload threshold.
  qos_config.max_queue_wait_us = 200'000;
  qos_config.ewma_alpha = 0.5;
  auto cluster =
      ScoopCluster::Create(SwiftConfig(), ResultCacheConfig(), qos_config);
  if (!cluster.ok()) return 1;
  qos::QosController* qos = (*cluster)->qos();

  GridPocketGenerator generator({.num_meters = 20,
                                 .readings_per_meter = 1440,
                                 .seed = 7});
  auto gold = MakeTenant(cluster->get(), "gold-co", "gold-co",
                         TenantTier::kGold, generator);
  auto bronze = MakeTenant(cluster->get(), "bronze-co", "bronze-co",
                           TenantTier::kBronze, generator);
  if (!gold.ok() || !bronze.ok()) {
    std::fprintf(stderr, "tenant setup failed\n");
    return 1;
  }

  const char* kSql =
      "SELECT city, sum(index) AS total FROM meters "
      "WHERE date LIKE '2015-01-02%' GROUP BY city ORDER BY city";

  // §VII: model the filter's effectiveness before pushing down. The
  // optimizer's estimate comes from the extracted SourceFilter.
  auto stmt = ParseSql(kSql);
  auto extraction =
      ExtractPushdown(*stmt, GridPocketGenerator::MeterSchema());
  std::printf(
      "optimizer estimate: pushed filter %s keeps ~%.1f%% of rows\n",
      extraction->pushed_filter.Serialize().c_str(),
      extraction->estimated_row_pass_rate * 100);

  // Round 2 runs under load. Bronze queries first in each round: gold's
  // storlet runs dispatch at once, and each short wait pulls the EWMA
  // back down, so the queue has drained again by round 3.
  for (int round = 1; round <= 3; ++round) {
    if (round == 2 && !PinStorletSlots(qos)) {
      std::fprintf(stderr, "storlet queue never backed up\n");
      return 1;
    }
    int64_t queue_us = qos->QueueEwmaUs();
    bool overloaded = qos->overloaded();
    auto bronze_run = (*bronze)->Sql(kSql);
    auto gold_run = (*gold)->Sql(kSql);
    if (!gold_run.ok() || !bronze_run.ok()) return 1;
    if (gold_run->table.ToCsv() != bronze_run->table.ToCsv()) {
      std::fprintf(stderr, "tenants disagree!\n");
      return 1;
    }
    std::printf(
        "round %d: storlet queue %lld us (%s) | gold pushdown partitions "
        "%d/%d (%s ingested) | bronze pushdown partitions %d/%d (%s "
        "ingested)\n",
        round, static_cast<long long>(queue_us),
        overloaded ? "overloaded -> bronze demoted" : "ok",
        gold_run->stats.partitions_pushdown, gold_run->stats.partitions,
        FormatBytes(static_cast<double>(gold_run->stats.bytes_ingested))
            .c_str(),
        bronze_run->stats.partitions_pushdown, bronze_run->stats.partitions,
        FormatBytes(static_cast<double>(bronze_run->stats.bytes_ingested))
            .c_str());
  }
  std::printf(
      "\ngold kept the accelerated path throughout; bronze fell back to\n"
      "ingest-then-compute while the storlet queue was overloaded — with\n"
      "identical query results.\n");
  return 0;
}
