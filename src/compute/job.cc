#include "compute/job.h"

#include "common/trace.h"
#include "sql/parser.h"

namespace scoop {

Result<QueryOutcome> SqlJobRunner::Run(const SelectStatement& stmt,
                                       PartitionedRelation* relation) {
  Stopwatch watch;
  SCOOP_ASSIGN_OR_RETURN(auto plan,
                         PhysicalPlan::Create(stmt, relation->schema()));
  SCOOP_ASSIGN_OR_RETURN(std::vector<Partition> partitions,
                         relation->Partitions());

  struct TaskOutput {
    PartialResult partial;
    PartitionScanResult scan_info;  // batches cleared, stats kept
    Status status = Status::OK();
  };
  std::vector<TaskOutput> outputs(partitions.size());

  // The full pushdown hint set, shared by every task: projection and
  // selection always; partial aggregation when the plan's shape is
  // distributable; a LIMIT cap when the driver only needs a row prefix.
  // Sources that ignore the extensions return batches and the tasks
  // aggregate/truncate compute-side — same answer either way.
  ScanSpec scan_spec;
  scan_spec.required_columns = plan->required_columns();
  scan_spec.filter = plan->pushed_filter();
  scan_spec.aggregate = plan->agg_pushdown();
  if (plan->limit_pushdown_eligible()) scan_spec.limit = plan->limit();

  ExponentialHistogram* batch_eval_us =
      metrics_ != nullptr ? metrics_->GetHistogram("exec.batch_eval_us")
                          : nullptr;
  ParallelFor(*pool_, partitions.size(), [&](size_t index) {
    TaskOutput& out = outputs[index];
    auto scan = relation->ScanPartition(partitions[index], scan_spec);
    if (!scan.ok()) {
      out.status = scan.status();
      return;
    }
    if (scan->agg_applied) {
      // The store already folded this partition into partial
      // aggregate states; absorb them as if the rows had been
      // processed here.
      AggPartialFrame frame;
      frame.agg_kinds = scan_spec.aggregate->agg_kinds;
      frame.rows = scan->agg_rows;
      frame.groups = std::move(scan->agg_groups);
      out.status = plan->AbsorbAggPartials(frame, &out.partial);
      if (!out.status.ok()) return;
      scan->agg_groups.clear();
    }
    for (const RecordBatch& batch : scan->batches) {
      Stopwatch batch_watch;
      plan->ProcessBatch(batch, scan->filter_applied, &out.partial);
      if (batch_eval_us != nullptr) {
        batch_eval_us->Record(static_cast<int64_t>(
            batch_watch.ElapsedSeconds() * 1e6));
      }
    }
    scan->batches.clear();
    out.scan_info = std::move(scan).value();
  });

  QueryOutcome outcome;
  outcome.stats.partitions = static_cast<int>(partitions.size());
  // Driver-side final merge: every partition's partial states — whether
  // produced by a storlet or by a task — collapse here, in partition
  // order, then finalize into the result table. Roots its own trace; the
  // store-side trees hang off the per-partition stocator spans instead.
  TraceSpan merge_span("driver.final_merge");
  PartialResult merged;
  for (size_t i = 0; i < outputs.size(); ++i) {
    SCOOP_RETURN_IF_ERROR(outputs[i].status);
    // Merge in partition order: first_value determinism depends on it.
    plan->MergePartial(&merged, std::move(outputs[i].partial));
    const PartitionScanResult& info = outputs[i].scan_info;
    outcome.stats.raw_bytes += info.raw_bytes;
    outcome.stats.bytes_ingested += info.bytes_transferred;
    outcome.stats.requests += info.requests;
    if (info.filter_applied) ++outcome.stats.partitions_pushdown;
  }
  outcome.stats.rows_scanned = merged.rows_seen;
  outcome.stats.rows_passed = merged.rows_passed;
  SCOOP_ASSIGN_OR_RETURN(outcome.table, plan->Finalize(std::move(merged)));
  if (merge_span.active()) {
    merge_span.SetTag("partitions", std::to_string(outputs.size()));
    merge_span.SetTag("rows_output", std::to_string(outcome.table.rows.size()));
  }
  merge_span.End();
  outcome.stats.rows_output = static_cast<int64_t>(outcome.table.rows.size());
  outcome.stats.wall_seconds = watch.ElapsedSeconds();
  return outcome;
}

Result<QueryOutcome> SqlJobRunner::RunSql(const std::string& sql,
                                          PartitionedRelation* relation) {
  SCOOP_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  return Run(stmt, relation);
}

}  // namespace scoop
