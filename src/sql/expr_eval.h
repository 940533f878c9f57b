#ifndef SCOOP_SQL_EXPR_EVAL_H_
#define SCOOP_SQL_EXPR_EVAL_H_

#include <set>
#include <string>
#include <string_view>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/schema.h"
#include "sql/value.h"

namespace scoop {

// Resolves every column reference in `expr` against `schema`, storing the
// index in Expr::col_index. Fails on unknown columns and on aggregate
// calls — the executor rewrites those before binding.
Status BindExpr(Expr* expr, const Schema& schema);

// Evaluates a bound scalar expression against one row.
//
// Semantics (documented deviations from full SQL three-valued logic):
//  * comparisons with a null operand evaluate to false (not UNKNOWN);
//  * NOT is classical negation of that boolean;
// SourceFilter::MatchRows evaluates a pushed filter with the same
// semantics, over raw fields at the store and over typed batches in the
// driver, so the rows it keeps are the rows this keeps. It is the scalar
// reference both are tested against; in ProcessBatch it runs only the
// residual conjuncts.
Value EvalExpr(const Expr& expr, const Row& row);

// Truthiness of EvalExpr: non-null and non-zero.
bool EvalPredicate(const Expr& expr, const Row& row);

// Adds all referenced column names (lowercased) to `out`.
void CollectColumns(const Expr& expr, std::set<std::string>* out);

// Static result type of a bound expression against `schema` (used to name
// and type output columns).
ColumnType InferType(const Expr& expr, const Schema& schema);

// SUBSTRING(str, pos, len) with Spark semantics: 1-based `pos` (0 treated
// as 1), negative `pos` counts from the end, results clamped to the string.
std::string SqlSubstring(const std::string& s, int64_t pos, int64_t len);
// The same cut as a view into `s`.
std::string_view SqlSubstringView(std::string_view s, int64_t pos,
                                  int64_t len);

}  // namespace scoop

#endif  // SCOOP_SQL_EXPR_EVAL_H_
