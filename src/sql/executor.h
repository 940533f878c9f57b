#ifndef SCOOP_SQL_EXECUTOR_H_
#define SCOOP_SQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/record_batch.h"
#include "common/result.h"
#include "sql/agg_wire.h"
#include "sql/aggregates.h"
#include "sql/ast.h"
#include "sql/catalyst.h"
#include "sql/group_fold.h"
#include "sql/schema.h"
#include "sql/value.h"

namespace scoop {

// A materialized query result.
struct ResultTable {
  Schema schema;
  std::vector<Row> rows;

  // CSV rendering (no header) — matches the storage CSV dialect.
  std::string ToCsv() const;
  // Human-readable table with header, truncated to `max_rows`.
  std::string ToDisplayString(size_t max_rows = 20) const;
};

// Mergeable per-task partial result. Opaque to callers; produced by
// PhysicalPlan::ProcessRow and consumed by Merge/Finalize.
struct PartialResult {
  // Non-aggregate plans: visible output values followed by sort-key values.
  std::vector<Row> rows;
  // Aggregate plans: serialized group key -> (key values, agg states).
  GroupMap groups;

  int64_t rows_seen = 0;    // rows offered to the plan
  int64_t rows_passed = 0;  // rows surviving the filters
};

// A compiled, immutable execution plan for one SELECT over one table
// schema. The same plan object drives both the pushdown path (tasks feed
// it pre-filtered, pre-projected rows) and the plain ingest path (tasks
// feed it raw rows and it applies the full WHERE).
class PhysicalPlan {
 public:
  // Compiles `stmt` against `table_schema`. Verifies column references and
  // the aggregate/grouping contract (non-aggregate select expressions must
  // match a GROUP BY expression).
  static Result<std::shared_ptr<const PhysicalPlan>> Create(
      const SelectStatement& stmt, const Schema& table_schema);

  // What the scan must produce (pruned projection, table-schema order).
  const Schema& scan_schema() const { return scan_schema_; }
  const std::vector<std::string>& required_columns() const {
    return required_columns_;
  }
  // The Catalyst-extracted filter a source may evaluate for us.
  const SourceFilter& pushed_filter() const { return pushed_filter_; }
  bool has_pushed_filter() const { return !pushed_filter_.IsTrue(); }
  double estimated_row_pass_rate() const { return estimated_row_pass_rate_; }
  const Schema& output_schema() const { return output_schema_; }
  bool has_aggregates() const { return has_aggregates_; }

  // Non-null when the aggregation is distributable to the store: every
  // aggregate (sum/min/max/count/avg/first_value) is over a bare scan
  // column (or is count(*)), every GROUP BY key is a bare column or
  // substr(string-column, int-literal, int-literal), and no residual
  // predicate or HAVING forces raw rows back to the driver. first_value
  // qualifies because a storlet folds its partition's records in object
  // order and the driver merges partitions in partition order.
  // Unsupported shapes return null and keep the select-only pushdown.
  const AggPushdownSpec* agg_pushdown() const { return agg_pushdown_.get(); }

  // True when a source may stop the scan after limit() filter-surviving
  // rows without changing the result: no aggregation, no ORDER BY, and
  // no residual predicate (the ordered partition merge then preserves
  // exactly the global row prefix).
  bool limit_pushdown_eligible() const { return limit_pushdown_eligible_; }
  int64_t limit() const { return limit_; }

  // Feeds one scan row (typed per scan_schema()). When
  // `filters_already_applied` is true only the residual WHERE conjuncts
  // are checked (the store ran the pushed filter); otherwise the full
  // WHERE applies.
  void ProcessRow(const Row& row, bool filters_already_applied,
                  PartialResult* partial) const;

  // Batch-native equivalent: feeds every row of `batch` (its columns in
  // scan_schema() order). When the store did not apply it, the pushed
  // filter narrows a selection vector through SourceFilter::MatchRows,
  // the kernel the storlets run; only the residual conjuncts go to
  // EvalPredicate, on extracted rows. When every group key and aggregate
  // input is a bare column (or a substr key, or count(*)), the survivors
  // fold straight from the column vectors (sql/group_fold.h); other
  // shapes materialize them as rows for AccumulateRow. A batch whose
  // column types differ from scan_schema()'s goes through ProcessRow row
  // by row. Produces the exact PartialResult that per-row ProcessRow
  // calls over the same data would.
  void ProcessBatch(const RecordBatch& batch, bool filters_already_applied,
                    PartialResult* partial) const;

  // Folds `from` into `into`. Call in ascending partition order so
  // first_value keeps the earliest partition's value.
  void MergePartial(PartialResult* into, PartialResult&& from) const;

  // Folds one storlet-produced partial-aggregate frame into `partial`,
  // exactly as if the frame's covered rows had been fed through
  // ProcessRow. Fails when the frame shape disagrees with the plan.
  Status AbsorbAggPartials(const AggPartialFrame& frame,
                           PartialResult* partial) const;

  // Final aggregation + ORDER BY + LIMIT + projection.
  Result<ResultTable> Finalize(PartialResult&& partial) const;

  // Convenience: run the whole plan over an in-memory table (testing and
  // reference results).
  Result<ResultTable> ExecuteLocal(const std::vector<Row>& scan_rows,
                                   bool filters_already_applied) const;

  // Human-readable plan description: scan projection, pushed filter,
  // residual predicates, aggregation and ordering — what EXPLAIN prints.
  std::string Explain() const;

 private:
  PhysicalPlan() = default;

  struct AggSpec {
    AggKind kind = AggKind::kCount;
    std::unique_ptr<Expr> arg;  // bound to scan schema; null for count(*)
    std::string canonical;
  };
  struct SortKey {
    size_t hidden_index;  // position among the sort-value columns
    bool descending;
  };

  // Rewrites a select/order expression of an aggregate query so aggregate
  // calls become #agg<i> references (registering new AggSpecs on the fly)
  // and group-expression matches become #key<j> references. Fails when a
  // raw column survives the rewrite.
  Result<std::unique_ptr<Expr>> RewriteAggregateExpr(const Expr& expr);

  // Fills fold_ when every group key and aggregate input reads one scan
  // column (see ProcessBatch).
  void CompileGroupFold();

  // Fills agg_pushdown_ when the compiled aggregation matches the
  // distributable shape (see agg_pushdown()).
  void ComputeAggPushdown();

  // Post-filter half of ProcessRow: aggregation update or output/sort
  // projection for one row that already passed the WHERE conjuncts. The
  // scalar oracle's path, and ProcessBatch's for shapes fold_ cannot
  // take.
  void AccumulateRow(const Row& row, PartialResult* partial) const;

  Schema table_schema_;
  Schema scan_schema_;
  std::vector<std::string> required_columns_;
  SourceFilter pushed_filter_;
  double estimated_row_pass_rate_ = 1.0;
  bool has_aggregates_ = false;

  std::vector<std::unique_ptr<Expr>> residual_conjuncts_;  // scan-bound
  std::vector<std::unique_ptr<Expr>> all_conjuncts_;       // scan-bound

  // Aggregate machinery.
  std::vector<std::unique_ptr<Expr>> group_exprs_;  // scan-bound
  std::vector<std::string> group_canon_;
  std::vector<AggSpec> agg_specs_;
  Schema internal_schema_;  // #key..., #agg...

  // Output expressions: bound to internal_schema_ for aggregate plans,
  // to scan_schema_ otherwise.
  std::vector<std::unique_ptr<Expr>> output_exprs_;
  Schema output_schema_;

  // HAVING predicate over the internal (group key + aggregate) row;
  // nullptr when absent.
  std::unique_ptr<Expr> having_;

  // Sort expressions, bound like output_exprs_; evaluated into hidden
  // trailing columns.
  std::vector<std::unique_ptr<Expr>> sort_exprs_;
  std::vector<bool> sort_descending_;

  int64_t limit_ = -1;
  std::unique_ptr<GroupFoldSpec> fold_;
  std::unique_ptr<AggPushdownSpec> agg_pushdown_;
  bool limit_pushdown_eligible_ = false;
};

// One-call helper: parse, plan, and execute `sql` over rows of
// `table_schema` (rows must match the *table* schema; the helper applies
// the plan's projection itself). The reference evaluator for tests.
Result<ResultTable> ExecuteSqlOverRows(std::string_view sql,
                                       const Schema& table_schema,
                                       const std::vector<Row>& table_rows);

}  // namespace scoop

#endif  // SCOOP_SQL_EXECUTOR_H_
