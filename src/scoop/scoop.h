#ifndef SCOOP_SCOOP_SCOOP_H_
#define SCOOP_SCOOP_SCOOP_H_

#include <memory>
#include <string>

#include "cache/cache_middleware.h"
#include "cache/result_cache.h"
#include "common/result.h"
#include "compute/session.h"
#include "compute/storlet_rdd.h"
#include "datasource/csv_source.h"
#include "datasource/parquet_source.h"
#include "datasource/stocator.h"
#include "objectstore/cluster.h"
#include "qos/qos.h"
#include "qos/qos_middleware.h"
#include "storlets/engine.h"
#include "storlets/storlet_middleware.h"

namespace scoop {

// The assembled Scoop storage cluster: an OpenStack-Swift-like object
// store whose proxy and object-server pipelines carry the Storlet engine,
// with the CSV and ETL pushdown filters deployed. This is the paper's
// Fig. 3 storage side in one object.
class ScoopCluster {
 public:
  // Builds the cluster and installs the storlet middleware at both stages
  // plus the pushdown result cache + singleflight middleware on every
  // proxy (between auth and the proxy-stage storlet middleware). The
  // CSVStorlet and EtlStorlet ship pre-deployed; more filters can be
  // registered through engine().registry() at any time ("on-the-fly"
  // extension, §IV). The cache ships disabled by default
  // (cache_config.enabled) and can be toggled at runtime through
  // result_cache(). When qos_config.enabled, every proxy gets the QoS
  // admission middleware (between auth and the cache) and the storlet
  // engine is gated by the weighted fair queue (DESIGN.md §3k).
  static Result<std::unique_ptr<ScoopCluster>> Create(
      const SwiftConfig& config = SwiftConfig(),
      const ResultCacheConfig& cache_config = ResultCacheConfig(),
      const qos::QosConfig& qos_config = qos::QosConfig());

  SwiftCluster& swift() { return *swift_; }
  StorletEngine& engine() { return *engine_; }
  PolicyStore& policies() { return engine_->policies(); }
  MetricRegistry& metrics() { return swift_->metrics(); }
  ResultCache& result_cache() { return *cache_; }
  // Null unless the cluster was built with qos_config.enabled.
  qos::QosController* qos() { return qos_.get(); }

  // The (process-global) trace collector, surfaced here for controllers
  // and tests: Enable() around a query, then Snapshot()/DumpJson() to see
  // the span tree stocator -> proxy -> object server -> storlet stages
  // with per-hop durations. Disabled it costs one atomic load per site
  // (DESIGN.md §3f).
  TraceCollector& traces() { return TraceCollector::Global(); }

  // Registers a tenant and returns a connected client.
  Result<SwiftClient> Connect(const std::string& tenant,
                              const std::string& key,
                              const std::string& account);

  // Scale-out: adds a storage node (ring rebalance + storlet middleware on
  // the new node) and migrates replicas onto it. Pushdown keeps working
  // on the enlarged cluster immediately.
  Status AddStorageNode(int disks);

 private:
  ScoopCluster() = default;

  std::unique_ptr<SwiftCluster> swift_;
  std::shared_ptr<StorletEngine> engine_;
  std::shared_ptr<ResultCache> cache_;
  std::shared_ptr<qos::QosController> qos_;
};

// The compute side bound to one tenant: a SparkSession plus the Stocator
// connector, with helpers to register CSV (pushdown or vanilla) and
// parquet-like tables. This is the public API the examples and benches
// program against.
class ScoopSession {
 public:
  ScoopSession(ScoopCluster* cluster, SwiftClient client, int num_workers)
      : cluster_(cluster),
        client_(std::move(client)),
        stocator_(&client_, &cluster->metrics()),
        spark_(num_workers) {
    spark_.set_metrics(&cluster->metrics());
  }

  ScoopSession(const ScoopSession&) = delete;
  ScoopSession& operator=(const ScoopSession&) = delete;

  SwiftClient& client() { return client_; }
  Stocator& stocator() { return stocator_; }
  SparkSession& spark() { return spark_; }
  ScoopCluster& cluster() { return *cluster_; }

  // Registers `name` over CSV objects in container/prefix. `pushdown`
  // selects Scoop (true) vs plain ingest-then-compute (false).
  void RegisterCsvTable(const std::string& name, const std::string& container,
                        const std::string& prefix, const Schema& schema,
                        bool pushdown,
                        CsvSourceOptions options = CsvSourceOptions());

  // Registers `name` over parquet-like objects (the Fig. 8 baseline).
  void RegisterParquetTable(const std::string& name,
                            const std::string& container,
                            const std::string& prefix, const Schema& schema,
                            bool stats_skipping = false);

  // Runs a SQL query against a registered table.
  Result<QueryOutcome> Sql(const std::string& query) {
    return spark_.Sql(query);
  }

  // §VII programmatic offload: run `storlet` on every object of a dataset.
  StorletRdd MakeStorletRdd(const std::string& container,
                            const std::string& prefix,
                            const std::string& storlet, StorletParams params) {
    return StorletRdd(&client_, &spark_.pool(), container, prefix,
                      storlet, std::move(params));
  }

 private:
  ScoopCluster* cluster_;
  SwiftClient client_;
  Stocator stocator_;
  SparkSession spark_;
};

}  // namespace scoop

#endif  // SCOOP_SCOOP_SCOOP_H_
