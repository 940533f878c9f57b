#include "datasource/csv_source.h"

#include <numeric>

#include "columnar/simd.h"
#include "csv/batch_reader.h"

namespace scoop {

Result<std::vector<Partition>> CsvDataSource::Partitions() {
  if (options_.object_aware_partitioning) {
    return DiscoverPartitionsObjectAware(
        stocator_->client(), container_, prefix_, options_.target_parallelism,
        options_.min_partition_bytes);
  }
  return DiscoverPartitions(stocator_->client(), container_, prefix_,
                            options_.chunk_size);
}

Result<PartitionScanResult> CsvDataSource::ScanPartition(
    const Partition& partition,
    const std::vector<std::string>& required_columns,
    const SourceFilter& filter) {
  ScanSpec spec;
  spec.required_columns = required_columns;
  spec.filter = filter;
  return ScanPartition(partition, spec);
}

Result<PartitionScanResult> CsvDataSource::ScanPartition(
    const Partition& partition, const ScanSpec& spec) {
  const std::vector<std::string>& required_columns = spec.required_columns;
  const SourceFilter& filter = spec.filter;
  PartitionScanResult result;
  result.raw_bytes = partition.length();

  const PushdownTask* task_ptr = nullptr;
  PushdownTask task;
  if (options_.pushdown_enabled) {
    task.schema = schema_;
    task.projection = required_columns;
    task.selection = filter;
    task.compress_transfer = options_.compress_transfer;
    if (options_.agg_pushdown_enabled) task.aggregate = spec.aggregate;
    if (options_.limit_pushdown_enabled && task.aggregate == nullptr) {
      task.limit = spec.limit;
    }
    task_ptr = &task;
  }
  SCOOP_ASSIGN_OR_RETURN(Stocator::ReadResult read,
                         stocator_->ReadPartition(partition, task_ptr));
  result.bytes_transferred = read.bytes_transferred;
  result.requests = read.requests;
  result.filter_applied = read.pushdown_executed;
  result.limit_applied = read.limit_hit;

  if (read.pushdown_executed && task.aggregate != nullptr) {
    // The partition arrived as partial aggregate states, not rows: decode
    // the SAG1 frame(s) and hand the groups to the engine to merge. A
    // frame whose aggregate list disagrees with the request would merge
    // into nonsense — reject it instead.
    AggWireReader frames;
    frames.Feed(read.data);
    AggPartialFrame frame;
    for (;;) {
      SCOOP_ASSIGN_OR_RETURN(bool got, frames.Next(&frame));
      if (!got) break;
      if (frame.agg_kinds != task.aggregate->agg_kinds) {
        return Status::InvalidArgument(
            "agg pushdown: frame aggregates do not match the request");
      }
      result.agg_rows += frame.rows;
      for (AggPartialGroup& group : frame.groups) {
        result.agg_groups.push_back(std::move(group));
      }
    }
    if (frames.buffered_bytes() != 0) {
      return Status::InvalidArgument(
          "agg pushdown: trailing bytes after SAG1 frames");
    }
    result.agg_applied = true;
    return result;
  }

  // With pushdown the storlet already projected the record to
  // required-column order; otherwise we scan full-schema batches and
  // project by sharing column vectors (zero copy).
  SCOOP_ASSIGN_OR_RETURN(Schema pruned, schema_.Select(required_columns));
  MetricRegistry* metrics = stocator_->metrics();
  Counter* batches_counter =
      metrics != nullptr ? metrics->GetCounter("csv.batches") : nullptr;
  Counter* simd_bytes =
      metrics != nullptr ? metrics->GetCounter("csv.simd_bytes") : nullptr;
  ExponentialHistogram* rows_per_batch =
      metrics != nullptr ? metrics->GetHistogram("scan.rows_per_batch")
                         : nullptr;
  auto account = [&](const RecordBatch& batch) {
    if (batches_counter != nullptr) batches_counter->Increment();
    if (rows_per_batch != nullptr) rows_per_batch->Record(batch.num_rows());
  };

  if (read.pushdown_executed) {
    CsvBatchReader reader(read.data, &pruned);
    RecordBatch batch;
    while (reader.Next(&batch)) {
      account(batch);
      result.batches.push_back(std::move(batch));
    }
    if (simd_bytes != nullptr && SimdEnabled()) {
      simd_bytes->Add(static_cast<int64_t>(reader.stats().scanned_bytes));
    }
    return result;
  }

  std::vector<int> indices;
  indices.reserve(required_columns.size());
  for (const std::string& name : required_columns) {
    indices.push_back(schema_.IndexOf(name));
  }
  CsvBatchReader reader(read.data, &schema_);
  RecordBatch batch;
  while (reader.Next(&batch)) {
    account(batch);
    result.batches.push_back(batch.SelectColumns(pruned, indices));
  }
  if (simd_bytes != nullptr && SimdEnabled()) {
    simd_bytes->Add(static_cast<int64_t>(reader.stats().scanned_bytes));
  }
  return result;
}

}  // namespace scoop
