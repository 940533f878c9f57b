#include "sql/catalyst.h"

#include <set>

#include "common/strings.h"
#include "sql/expr_eval.h"

namespace scoop {

namespace {

// Maps a comparison op to its SourceFilter twin.
SourceFilter::Op ToFilterOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return SourceFilter::Op::kEq;
    case BinaryOp::kNe:
      return SourceFilter::Op::kNe;
    case BinaryOp::kLt:
      return SourceFilter::Op::kLt;
    case BinaryOp::kLe:
      return SourceFilter::Op::kLe;
    case BinaryOp::kGt:
      return SourceFilter::Op::kGt;
    case BinaryOp::kGe:
      return SourceFilter::Op::kGe;
    default:
      return SourceFilter::Op::kTrue;
  }
}

// Mirror of a comparison when operands are swapped (lit < col ≡ col > lit).
SourceFilter::Op FlipOp(SourceFilter::Op op) {
  switch (op) {
    case SourceFilter::Op::kLt:
      return SourceFilter::Op::kGt;
    case SourceFilter::Op::kLe:
      return SourceFilter::Op::kGe;
    case SourceFilter::Op::kGt:
      return SourceFilter::Op::kLt;
    case SourceFilter::Op::kGe:
      return SourceFilter::Op::kLe;
    default:
      return op;  // eq/ne are symmetric
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// Checks that the literal's type is compatible with the column's type for
// exact storage-side evaluation: numeric literals with numeric columns,
// string literals with string columns.
bool TypesAgree(ColumnType column_type, const Value& literal) {
  bool literal_numeric = literal.type() == ValueType::kInt64 ||
                         literal.type() == ValueType::kDouble;
  bool column_numeric =
      column_type == ColumnType::kInt64 || column_type == ColumnType::kDouble;
  return literal_numeric == column_numeric;
}

}  // namespace

void SplitConjuncts(const Expr& expr,
                    std::vector<std::unique_ptr<Expr>>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.bop == BinaryOp::kAnd) {
    SplitConjuncts(*expr.args[0], out);
    SplitConjuncts(*expr.args[1], out);
    return;
  }
  out->push_back(expr.Clone());
}

bool TryConvertToSourceFilter(const Expr& expr, const Schema& schema,
                              SourceFilter* out) {
  if (expr.kind == Expr::Kind::kUnary && expr.uop == UnaryOp::kNot) {
    SourceFilter child;
    if (!TryConvertToSourceFilter(*expr.args[0], schema, &child)) return false;
    *out = SourceFilter::Not(std::move(child));
    return true;
  }
  // IS [NOT] NULL on a bare column of any type pushes as the null-test
  // filter: the store reads a field the way the scan types it, so an
  // empty or unparseable numeric field is null on both sides.
  if (expr.kind == Expr::Kind::kFunc &&
      (expr.name == "is_null" || expr.name == "is_not_null") &&
      expr.args.size() == 1 && expr.args[0]->kind == Expr::Kind::kColumn) {
    if (schema.IndexOf(expr.args[0]->name) < 0) return false;
    *out = SourceFilter::IsNull(ToLower(expr.args[0]->name),
                                /*negated=*/expr.name == "is_not_null");
    return true;
  }
  if (expr.kind != Expr::Kind::kBinary) return false;

  if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
    SourceFilter lhs, rhs;
    if (!TryConvertToSourceFilter(*expr.args[0], schema, &lhs)) return false;
    if (!TryConvertToSourceFilter(*expr.args[1], schema, &rhs)) return false;
    std::vector<SourceFilter> children;
    children.push_back(std::move(lhs));
    children.push_back(std::move(rhs));
    *out = expr.bop == BinaryOp::kAnd ? SourceFilter::And(std::move(children))
                                      : SourceFilter::Or(std::move(children));
    return true;
  }

  const Expr* column_side = nullptr;
  const Expr* literal_side = nullptr;
  bool flipped = false;
  if (expr.args[0]->kind == Expr::Kind::kColumn &&
      expr.args[1]->kind == Expr::Kind::kLiteral) {
    column_side = expr.args[0].get();
    literal_side = expr.args[1].get();
  } else if (expr.args[1]->kind == Expr::Kind::kColumn &&
             expr.args[0]->kind == Expr::Kind::kLiteral) {
    column_side = expr.args[1].get();
    literal_side = expr.args[0].get();
    flipped = true;
  } else {
    return false;
  }

  int idx = schema.IndexOf(column_side->name);
  if (idx < 0) return false;
  ColumnType column_type = schema.column(static_cast<size_t>(idx)).type;
  const Value& literal = literal_side->literal;
  if (literal.is_null()) return false;  // null comparisons stay residual

  if (expr.bop == BinaryOp::kLike) {
    // LIKE is only exact on string columns (numeric fields may carry
    // formatting the compute side would not see after parsing).
    if (flipped || column_type != ColumnType::kString ||
        literal.type() != ValueType::kString) {
      return false;
    }
    *out = SourceFilter::Like(ToLower(column_side->name), literal.AsString());
    return true;
  }
  if (!IsComparison(expr.bop)) return false;
  if (!TypesAgree(column_type, literal)) return false;
  SourceFilter::Op op = ToFilterOp(expr.bop);
  if (flipped) op = FlipOp(op);
  *out = SourceFilter::Compare(op, ToLower(column_side->name), literal);
  return true;
}

Result<PushdownExtraction> ExtractPushdown(const SelectStatement& stmt,
                                           const Schema& table_schema) {
  PushdownExtraction out;

  // Projection: every referenced column, kept in table-schema order.
  std::set<std::string> referenced;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->kind == Expr::Kind::kStar ||
        (item.expr->kind == Expr::Kind::kFunc && !item.expr->args.empty() &&
         item.expr->args[0]->kind == Expr::Kind::kStar &&
         item.expr->name != "count")) {
      // SELECT * (or agg over *): every column is required.
      for (const Column& column : table_schema.columns()) {
        referenced.insert(ToLower(column.name));
      }
      break;
    }
    CollectColumns(*item.expr, &referenced);
  }
  if (stmt.where != nullptr) CollectColumns(*stmt.where, &referenced);
  if (stmt.having != nullptr) CollectColumns(*stmt.having, &referenced);
  for (const auto& expr : stmt.group_by) CollectColumns(*expr, &referenced);
  // ORDER BY may name a select alias instead of a column (resolved by the
  // executor); don't treat such a bare identifier as a scan column unless
  // it actually is one.
  std::set<std::string> aliases;
  for (const SelectItem& item : stmt.items) {
    if (!item.alias.empty()) aliases.insert(ToLower(item.alias));
  }
  for (const OrderItem& item : stmt.order_by) {
    if (item.expr->kind == Expr::Kind::kColumn &&
        !table_schema.Has(item.expr->name) &&
        aliases.count(ToLower(item.expr->name))) {
      continue;
    }
    CollectColumns(*item.expr, &referenced);
  }
  for (const Column& column : table_schema.columns()) {
    if (referenced.count(ToLower(column.name))) {
      out.required_columns.push_back(column.name);
    }
  }
  // A query like `SELECT count(*) FROM t` references no column, but a scan
  // still needs one to count records; keep the narrowest first column.
  if (out.required_columns.empty() && table_schema.size() > 0) {
    out.required_columns.push_back(table_schema.column(0).name);
  }
  // Validate: every referenced name exists in the table.
  for (const std::string& name : referenced) {
    if (!table_schema.Has(name)) {
      return Status::NotFound("unknown column in query: " + name);
    }
  }

  // Selection: split the WHERE into conjuncts, push what converts.
  if (stmt.where != nullptr) {
    SplitConjuncts(*stmt.where, &out.all_conjuncts);
    std::vector<SourceFilter> pushed;
    for (const auto& conjunct : out.all_conjuncts) {
      SourceFilter filter;
      if (TryConvertToSourceFilter(*conjunct, table_schema, &filter)) {
        pushed.push_back(std::move(filter));
      } else {
        out.residual_conjuncts.push_back(conjunct->Clone());
      }
    }
    out.pushed_filter = SourceFilter::And(std::move(pushed));
  }
  out.estimated_row_pass_rate = out.pushed_filter.EstimateSelectivity();
  return out;
}

}  // namespace scoop
