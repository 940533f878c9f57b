#ifndef SCOOP_COMPUTE_JOB_H_
#define SCOOP_COMPUTE_JOB_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "datasource/datasource.h"
#include "sql/ast.h"
#include "sql/executor.h"

namespace scoop {

// Ingestion/processing statistics of one SQL job — the raw material for
// the paper's selectivity and resource metrics.
struct JobStats {
  int partitions = 0;
  int partitions_pushdown = 0;  // partitions the store filtered for us
  uint64_t raw_bytes = 0;       // dataset bytes the job covered at rest
  uint64_t bytes_ingested = 0;  // bytes that crossed to the compute cluster
  int requests = 0;             // GETs issued against the store
  int64_t rows_scanned = 0;     // rows offered to the plan
  int64_t rows_passed = 0;      // rows surviving the WHERE
  int64_t rows_output = 0;
  double wall_seconds = 0.0;

  // The paper's "query data selectivity": fraction of the dataset that did
  // not need to be ingested.
  double DataSelectivity() const {
    if (raw_bytes == 0) return 0.0;
    double kept = static_cast<double>(bytes_ingested) /
                  static_cast<double>(raw_bytes);
    return kept >= 1.0 ? 0.0 : 1.0 - kept;
  }
};

struct QueryOutcome {
  ResultTable table;
  JobStats stats;
};

// Executes a SELECT over a partitioned relation with Spark-like staging:
// partition discovery -> parallel per-partition tasks on `pool` (scan +
// residual filter + partial aggregation) -> ordered merge at the driver ->
// final sort/limit/projection. Whether filtering happens at the store or
// on the workers is decided per partition by what the scan reports.
class SqlJobRunner {
 public:
  // `metrics` (optional) receives the "exec.batch_eval_us" histogram —
  // per-RecordBatch evaluation latency on the columnar plane.
  explicit SqlJobRunner(ThreadPool* pool, MetricRegistry* metrics = nullptr)
      : pool_(pool), metrics_(metrics) {}

  Result<QueryOutcome> Run(const SelectStatement& stmt,
                           PartitionedRelation* relation);
  Result<QueryOutcome> RunSql(const std::string& sql,
                              PartitionedRelation* relation);

 private:
  ThreadPool* pool_;
  MetricRegistry* metrics_;
};

}  // namespace scoop

#endif  // SCOOP_COMPUTE_JOB_H_
