#ifndef SCOOP_DATASOURCE_DATASOURCE_H_
#define SCOOP_DATASOURCE_DATASOURCE_H_

#include <string>
#include <vector>

#include "columnar/record_batch.h"
#include "common/result.h"
#include "datasource/partitioner.h"
#include "sql/agg_wire.h"
#include "sql/schema.h"
#include "sql/source_filter.h"

namespace scoop {

// The Data Sources API (paper §III-A / §V-A), mirrored from Spark SQL.
// A relation exposes its schema, its partitions, and a partition scan
// that receives Spark's PrunedFilteredScan hints: the required columns
// and the selection filter. A source *may* evaluate the filter (sources
// are allowed to return unfiltered rows; the engine re-applies filters
// compute-side unless the scan reports them as handled through
// PartitionScanResult::filter_applied).

// Everything the engine can push into one partition scan: the classic
// projection/selection hints plus the aggregation/limit extensions. A
// source is free to honor only the parts it understands — the result
// reports what actually happened (filter_applied, agg_applied,
// limit_applied) and the engine compensates compute-side.
struct ScanSpec {
  std::vector<std::string> required_columns;
  SourceFilter filter = SourceFilter::True();
  // When set, the source may fold the partition into per-group partial
  // AggStates (PartitionScanResult::agg_groups) instead of rows. The
  // pointer must outlive the scan; it is owned by the PhysicalPlan.
  const AggPushdownSpec* aggregate = nullptr;
  // >= 0: the driver needs only this many selection-surviving rows from
  // this partition; the source may stop scanning (and transferring) once
  // it has them. Only meaningful without `aggregate`.
  int64_t limit = -1;
};

struct PartitionScanResult {
  // Typed RecordBatches in required-column order.
  std::vector<RecordBatch> batches;
  // True when the source already applied the selection filter exactly.
  bool filter_applied = false;
  // Aggregation pushdown: when `agg_applied` the partition arrived as
  // per-group partial AggStates — `batches` stays empty and `agg_rows`
  // counts the selection-surviving rows folded into the states (the
  // scan's contribution to rows_seen/rows_passed).
  std::vector<AggPartialGroup> agg_groups;
  int64_t agg_rows = 0;
  bool agg_applied = false;
  // True when the store stopped this scan early at the LIMIT cap.
  bool limit_applied = false;
  // Bytes that crossed the store->compute link for this partition.
  uint64_t bytes_transferred = 0;
  // Bytes of raw data the partition covers at rest.
  uint64_t raw_bytes = 0;
  // GET requests issued.
  int requests = 0;

  int64_t TotalRows() const {
    int64_t n = 0;
    for (const RecordBatch& b : batches) n += b.num_rows();
    return n;
  }
};

class PartitionedRelation {
 public:
  virtual ~PartitionedRelation() = default;
  virtual const Schema& schema() const = 0;

  // Partition discovery (runs before the query is known, §V-B).
  virtual Result<std::vector<Partition>> Partitions() = 0;

  // Scans one partition with projection+selection hints.
  virtual Result<PartitionScanResult> ScanPartition(
      const Partition& partition,
      const std::vector<std::string>& required_columns,
      const SourceFilter& filter) = 0;

  // Rich scan: adds the aggregation/limit pushdown hints. The default
  // forwards to the projection+selection form (extensions ignored), so
  // existing sources keep working unchanged; sources that can push
  // aggregates or limits override this one.
  virtual Result<PartitionScanResult> ScanPartition(const Partition& partition,
                                                    const ScanSpec& spec) {
    return ScanPartition(partition, spec.required_columns, spec.filter);
  }
};

}  // namespace scoop

#endif  // SCOOP_DATASOURCE_DATASOURCE_H_
