#ifndef SCOOP_SQL_CATALYST_H_
#define SCOOP_SQL_CATALYST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/schema.h"
#include "sql/source_filter.h"

namespace scoop {

// The role Catalyst plays for Scoop (paper §III-A): given a query, extract
// the projection and selection filters implied by it, so the data source —
// through PartitionedRelation::ScanPartition — can push them down to the
// store.
struct PushdownExtraction {
  // Columns the scan must produce, in table-schema order. Includes every
  // column referenced anywhere in the query (filter columns too, since the
  // data source contract allows sources to return unfiltered data and the
  // compute side must be able to re-apply the full WHERE).
  std::vector<std::string> required_columns;

  // Conjunction of the WHERE conjuncts expressible as source filters;
  // SourceFilter::True() when nothing is pushable.
  SourceFilter pushed_filter;

  // WHERE conjuncts the store cannot evaluate; re-checked compute-side.
  std::vector<std::unique_ptr<Expr>> residual_conjuncts;

  // All WHERE conjuncts (for the no-pushdown fallback path).
  std::vector<std::unique_ptr<Expr>> all_conjuncts;

  // Estimated fraction of rows passing pushed_filter; read by
  // PhysicalPlan::Explain and examples/adaptive_pushdown.
  double estimated_row_pass_rate = 1.0;
};

// Splits `expr` into its top-level AND conjuncts (clones).
void SplitConjuncts(const Expr& expr, std::vector<std::unique_ptr<Expr>>* out);

// Attempts to express `expr` as a SourceFilter the storage side can
// evaluate on raw CSV fields. Pushable shapes: comparisons and LIKE
// between one column and one literal (either operand order), IS-NULL
// style tests, and AND/OR/NOT of pushable children. LIKE is pushed only
// for string-typed columns and numeric comparisons only when column and
// literal types agree, so storage- and compute-side evaluation match
// exactly.
bool TryConvertToSourceFilter(const Expr& expr, const Schema& schema,
                              SourceFilter* out);

// Runs the extraction for `stmt` against `table_schema`.
Result<PushdownExtraction> ExtractPushdown(const SelectStatement& stmt,
                                           const Schema& table_schema);

}  // namespace scoop

#endif  // SCOOP_SQL_CATALYST_H_
