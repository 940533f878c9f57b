#include "scoop/scoop.h"

#include "csv/agg_storlet.h"
#include "csv/csv_storlet.h"
#include "csv/etl_storlet.h"
#include "mediameta/image_meta_storlet.h"
#include "storlets/compress_storlet.h"

namespace scoop {

Result<std::unique_ptr<ScoopCluster>> ScoopCluster::Create(
    const SwiftConfig& config, const ResultCacheConfig& cache_config,
    const qos::QosConfig& qos_config) {
  auto cluster = std::unique_ptr<ScoopCluster>(new ScoopCluster());
  SCOOP_ASSIGN_OR_RETURN(cluster->swift_, SwiftCluster::Create(config));

  auto registry = std::make_shared<StorletRegistry>();
  auto policies = std::make_shared<PolicyStore>();
  cluster->engine_ = std::make_shared<StorletEngine>(
      registry, policies, &cluster->swift_->metrics());

  // Ship the paper's filters pre-deployed: the CSVStorlet and ETL storlet
  // of §V plus the §IV/§VI-C/§VII extensions (partial aggregation,
  // compression).
  const std::pair<const char*, StorletFactory> kBuiltins[] = {
      {CsvStorlet::kName, &CsvStorlet::Make},
      {EtlStorlet::kName, &EtlStorlet::Make},
      {GroupAggStorlet::kName, &GroupAggStorlet::Make},
      {CompressStorlet::kName, &CompressStorlet::Make},
      {DecompressStorlet::kName, &DecompressStorlet::Make},
      {ImageMetaStorlet::kName, &ImageMetaStorlet::Make},
  };
  for (const auto& [name, factory] : kBuiltins) {
    SCOOP_RETURN_IF_ERROR(registry->RegisterFactory(name, factory));
    SCOOP_RETURN_IF_ERROR(registry->Deploy(name));
  }

  // The proxy-tier pushdown result cache and its singleflight latch.
  // One instance each, shared by every proxy — the cache amortizes
  // storage CPU across the whole fleet, and coalescing only works if all
  // proxies wait on the same key table.
  cluster->cache_ = std::make_shared<ResultCache>(
      cache_config, &cluster->swift_->metrics());
  auto flights = std::make_shared<Singleflight>();

  // Multi-tenant QoS (DESIGN.md §3k): one controller per cluster. The
  // proxy middleware below runs admission; the engine's invocation gate
  // runs the weighted fair queue, its ticket held until the filtered
  // stream drains so a slot covers the whole storlet execution.
  if (qos_config.enabled) {
    cluster->qos_ = std::make_shared<qos::QosController>(
        qos_config, &cluster->swift_->metrics());
    std::shared_ptr<qos::QosController> controller = cluster->qos_;
    cluster->engine_->set_invocation_gate(
        [controller](const std::string& account)
            -> Result<std::shared_ptr<void>> {
          SCOOP_ASSIGN_OR_RETURN(std::shared_ptr<qos::QosTicket> ticket,
                                 controller->AcquireStorletSlot(account));
          return std::shared_ptr<void>(std::move(ticket));
        });
  }

  // Install the middleware: object servers get the storlet stage (the
  // default execution site); proxies get QoS admission first (auth ran
  // already — SwiftCluster installs it at pipeline head — so the tier
  // stamp is trustworthy and throttled requests touch nothing else),
  // then result cache + singleflight (so hits and coalesced waiters never
  // reach the storlet), then the proxy storlet stage (PUT-path ETL and
  // the staging override).
  for (auto& server : cluster->swift_->object_servers()) {
    server->pipeline().Use(std::make_shared<StorletMiddleware>(
        ExecutionStage::kObjectNode, cluster->engine_));
  }
  for (auto& proxy : cluster->swift_->proxies()) {
    if (cluster->qos_ != nullptr) {
      proxy->pipeline().Use(
          std::make_shared<qos::QosMiddleware>(cluster->qos_));
    }
    proxy->pipeline().Use(std::make_shared<ResultCacheMiddleware>(
        cluster->cache_, flights, &cluster->swift_->registry(),
        &cluster->swift_->metrics()));
    proxy->pipeline().Use(std::make_shared<StorletMiddleware>(
        ExecutionStage::kProxy, cluster->engine_));
  }
  return cluster;
}

Status ScoopCluster::AddStorageNode(int disks) {
  SCOOP_ASSIGN_OR_RETURN(ObjectServer * server,
                         swift_->AddStorageNode(disks));
  server->pipeline().Use(std::make_shared<StorletMiddleware>(
      ExecutionStage::kObjectNode, engine_));
  // Populate the node and drop the now-stray handoff copies.
  swift_->RunReplication(/*remove_handoffs=*/true);
  return Status::OK();
}

Result<SwiftClient> ScoopCluster::Connect(const std::string& tenant,
                                          const std::string& key,
                                          const std::string& account) {
  return SwiftClient::Connect(swift_.get(), tenant, key, account);
}

void ScoopSession::RegisterCsvTable(const std::string& name,
                                    const std::string& container,
                                    const std::string& prefix,
                                    const Schema& schema, bool pushdown,
                                    CsvSourceOptions options) {
  options.pushdown_enabled = pushdown;
  spark_.RegisterTable(name,
                       std::make_shared<CsvDataSource>(
                           &stocator_, container, prefix, schema, options));
}

void ScoopSession::RegisterParquetTable(const std::string& name,
                                        const std::string& container,
                                        const std::string& prefix,
                                        const Schema& schema,
                                        bool stats_skipping) {
  spark_.RegisterTable(name, std::make_shared<ParquetDataSource>(
                                 &client_, container, prefix, schema,
                                 stats_skipping));
}

}  // namespace scoop
