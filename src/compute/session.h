#ifndef SCOOP_COMPUTE_SESSION_H_
#define SCOOP_COMPUTE_SESSION_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/thread_pool.h"
#include "compute/job.h"
#include "datasource/datasource.h"

namespace scoop {

// The SparkSession-like entry point of the compute cluster: tables are
// registered against data sources, then queried with SQL. The FROM clause
// resolves against the registered names (the paper's `largeMeter`).
// Every compute task — a query's partition scans, a StorletRdd's
// per-object invocations — runs on the session's one pool of
// `num_workers` threads.
class SparkSession {
 public:
  explicit SparkSession(int num_workers)
      : pool_(static_cast<size_t>(std::max(1, num_workers))) {}

  SparkSession(const SparkSession&) = delete;
  SparkSession& operator=(const SparkSession&) = delete;

  ThreadPool& pool() { return pool_; }

  // Points query execution at a metric registry (exec.batch_eval_us and
  // friends); nullptr (the default) disables execution metrics.
  void set_metrics(MetricRegistry* metrics) { metrics_ = metrics; }

  // Registers (or replaces) a table backed by `relation`.
  void RegisterTable(const std::string& name,
                     std::shared_ptr<PartitionedRelation> relation);

  Result<std::shared_ptr<PartitionedRelation>> GetTable(
      const std::string& name) const;

  // Parses and executes `query`, returning the result and job statistics.
  Result<QueryOutcome> Sql(const std::string& query);

  // Compiles `query` and returns the EXPLAIN text (scan projection,
  // pushed vs residual filters, aggregation, ordering) without running it.
  Result<std::string> ExplainSql(const std::string& query);

 private:
  ThreadPool pool_;
  MetricRegistry* metrics_ = nullptr;
  std::map<std::string, std::shared_ptr<PartitionedRelation>> tables_;
};

}  // namespace scoop

#endif  // SCOOP_COMPUTE_SESSION_H_
