#include "sql/executor.h"

#include <algorithm>
#include <numeric>

#include "common/strings.h"
#include "sql/expr_eval.h"
#include "sql/parser.h"

namespace scoop {

std::string ResultTable::ToCsv() const {
  std::string out;
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendCsvField(row[i].ToString(), &out);
    }
    out.push_back('\n');
  }
  return out;
}

std::string ResultTable::ToDisplayString(size_t max_rows) const {
  std::vector<size_t> widths(schema.size(), 0);
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  for (size_t i = 0; i < schema.size(); ++i) {
    header.push_back(schema.column(i).name);
    widths[i] = header.back().size();
  }
  size_t shown = std::min(max_rows, rows.size());
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row_cells;
    for (size_t i = 0; i < rows[r].size() && i < schema.size(); ++i) {
      row_cells.push_back(rows[r][i].ToString());
      widths[i] = std::max(widths[i], row_cells.back().size());
    }
    cells.push_back(std::move(row_cells));
  }
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      out += (i == 0 ? "| " : " | ");
      out += row[i];
      out.append(widths[i] - row[i].size(), ' ');
    }
    out += " |\n";
  };
  append_row(header);
  for (const auto& row : cells) append_row(row);
  if (rows.size() > shown) {
    out += StrFormat("... (%zu more rows)\n", rows.size() - shown);
  }
  return out;
}

Result<std::unique_ptr<Expr>> PhysicalPlan::RewriteAggregateExpr(
    const Expr& expr) {
  std::string canon = expr.ToString();
  // Group-key match first: an expression identical to a GROUP BY key
  // becomes a reference to that key.
  for (size_t j = 0; j < group_canon_.size(); ++j) {
    if (canon == group_canon_[j]) {
      return Expr::Col(StrFormat("#key%zu", j));
    }
  }
  if (expr.IsAggregateCall()) {
    for (size_t i = 0; i < agg_specs_.size(); ++i) {
      if (agg_specs_[i].canonical == canon) {
        return Expr::Col(StrFormat("#agg%zu", i));
      }
    }
    AggSpec spec;
    SCOOP_ASSIGN_OR_RETURN(spec.kind, AggKindFromName(expr.name));
    spec.canonical = canon;
    if (expr.args.empty()) {
      return Status::InvalidArgument("aggregate without argument: " + canon);
    }
    if (expr.args[0]->kind != Expr::Kind::kStar) {
      spec.arg = expr.args[0]->Clone();
      SCOOP_RETURN_IF_ERROR(BindExpr(spec.arg.get(), scan_schema_));
    } else if (spec.kind != AggKind::kCount) {
      return Status::InvalidArgument("'*' argument is only valid in count()");
    }
    size_t index = agg_specs_.size();
    agg_specs_.push_back(std::move(spec));
    return Expr::Col(StrFormat("#agg%zu", index));
  }
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.Clone();
    case Expr::Kind::kColumn:
      return Status::InvalidArgument(
          "column '" + expr.name +
          "' must appear in GROUP BY or inside an aggregate");
    case Expr::Kind::kStar:
      return Status::InvalidArgument("'*' is not valid here");
    default: {
      auto rewritten = expr.Clone();
      for (auto& arg : rewritten->args) {
        SCOOP_ASSIGN_OR_RETURN(auto new_arg, RewriteAggregateExpr(*arg));
        arg = std::move(new_arg);
      }
      return rewritten;
    }
  }
}

Result<std::shared_ptr<const PhysicalPlan>> PhysicalPlan::Create(
    const SelectStatement& stmt, const Schema& table_schema) {
  auto plan = std::shared_ptr<PhysicalPlan>(new PhysicalPlan());
  plan->table_schema_ = table_schema;
  plan->limit_ = stmt.limit;
  plan->has_aggregates_ = stmt.HasAggregates();

  SCOOP_ASSIGN_OR_RETURN(PushdownExtraction extraction,
                         ExtractPushdown(stmt, table_schema));
  plan->required_columns_ = std::move(extraction.required_columns);
  plan->pushed_filter_ = std::move(extraction.pushed_filter);
  plan->estimated_row_pass_rate_ = extraction.estimated_row_pass_rate;
  SCOOP_ASSIGN_OR_RETURN(plan->scan_schema_,
                         table_schema.Select(plan->required_columns_));

  plan->residual_conjuncts_ = std::move(extraction.residual_conjuncts);
  plan->all_conjuncts_ = std::move(extraction.all_conjuncts);
  for (auto& conjunct : plan->residual_conjuncts_) {
    SCOOP_RETURN_IF_ERROR(BindExpr(conjunct.get(), plan->scan_schema_));
  }
  for (auto& conjunct : plan->all_conjuncts_) {
    SCOOP_RETURN_IF_ERROR(BindExpr(conjunct.get(), plan->scan_schema_));
  }

  // Expand SELECT * into one item per table column.
  std::vector<const SelectItem*> items;
  std::vector<SelectItem> expanded;
  for (const SelectItem& item : stmt.items) {
    if (item.expr->kind == Expr::Kind::kStar) {
      if (plan->has_aggregates_) {
        return Status::InvalidArgument("SELECT * with aggregates");
      }
      for (const Column& column : table_schema.columns()) {
        SelectItem star_item;
        star_item.expr = Expr::Col(column.name);
        star_item.alias = column.name;
        expanded.push_back(std::move(star_item));
      }
    } else {
      SelectItem copy;
      copy.expr = item.expr->Clone();
      copy.alias = item.alias;
      expanded.push_back(std::move(copy));
    }
  }
  for (const SelectItem& item : expanded) items.push_back(&item);

  std::vector<Column> output_columns;
  if (plan->has_aggregates_) {
    // Bind GROUP BY keys against the scan schema.
    std::vector<Column> internal_columns;
    for (size_t j = 0; j < stmt.group_by.size(); ++j) {
      auto key = stmt.group_by[j]->Clone();
      plan->group_canon_.push_back(key->ToString());
      SCOOP_RETURN_IF_ERROR(BindExpr(key.get(), plan->scan_schema_));
      internal_columns.push_back(
          Column{StrFormat("#key%zu", j),
                 InferType(*stmt.group_by[j], plan->scan_schema_)});
      plan->group_exprs_.push_back(std::move(key));
    }
    // Rewrite select items, registering aggregate specs as encountered.
    for (const SelectItem* item : items) {
      SCOOP_ASSIGN_OR_RETURN(auto rewritten,
                             plan->RewriteAggregateExpr(*item->expr));
      plan->output_exprs_.push_back(std::move(rewritten));
    }
    // HAVING filters groups; it sees group keys and aggregates.
    if (stmt.having != nullptr) {
      SCOOP_ASSIGN_OR_RETURN(plan->having_,
                             plan->RewriteAggregateExpr(*stmt.having));
    }
    // Sort keys: rewrite like select items; fall back to alias references.
    for (const OrderItem& order : stmt.order_by) {
      auto rewritten = plan->RewriteAggregateExpr(*order.expr);
      if (!rewritten.ok()) {
        std::string canon = ToLower(order.expr->ToString());
        bool matched = false;
        for (size_t i = 0; i < items.size(); ++i) {
          if (ToLower(items[i]->alias) == canon) {
            plan->sort_exprs_.push_back(plan->output_exprs_[i]->Clone());
            matched = true;
            break;
          }
        }
        if (!matched) return rewritten.status();
      } else {
        plan->sort_exprs_.push_back(std::move(rewritten).value());
      }
      plan->sort_descending_.push_back(order.descending);
    }
    // The internal schema is now complete: keys then aggregate slots.
    for (size_t i = 0; i < plan->agg_specs_.size(); ++i) {
      ColumnType type = ColumnType::kDouble;
      const AggSpec& spec = plan->agg_specs_[i];
      if (spec.kind == AggKind::kCount) {
        type = ColumnType::kInt64;
      } else if (spec.arg != nullptr) {
        type = InferType(*spec.arg, plan->scan_schema_);
        if (spec.kind == AggKind::kAvg) type = ColumnType::kDouble;
      }
      internal_columns.push_back(Column{StrFormat("#agg%zu", i), type});
    }
    plan->internal_schema_ = Schema(std::move(internal_columns));
    if (plan->having_ != nullptr) {
      SCOOP_RETURN_IF_ERROR(
          BindExpr(plan->having_.get(), plan->internal_schema_));
    }
    for (auto& expr : plan->output_exprs_) {
      SCOOP_RETURN_IF_ERROR(BindExpr(expr.get(), plan->internal_schema_));
    }
    for (auto& expr : plan->sort_exprs_) {
      SCOOP_RETURN_IF_ERROR(BindExpr(expr.get(), plan->internal_schema_));
    }
    for (size_t i = 0; i < items.size(); ++i) {
      output_columns.push_back(
          Column{items[i]->OutputName(),
                 InferType(*plan->output_exprs_[i], plan->internal_schema_)});
    }
  } else {
    for (const SelectItem* item : items) {
      auto expr = item->expr->Clone();
      SCOOP_RETURN_IF_ERROR(BindExpr(expr.get(), plan->scan_schema_));
      output_columns.push_back(
          Column{item->OutputName(), InferType(*expr, plan->scan_schema_)});
      plan->output_exprs_.push_back(std::move(expr));
    }
    for (const OrderItem& order : stmt.order_by) {
      auto expr = order.expr->Clone();
      Status bound = BindExpr(expr.get(), plan->scan_schema_);
      if (!bound.ok()) {
        // Alias reference fallback.
        std::string canon = ToLower(order.expr->ToString());
        bool matched = false;
        for (size_t i = 0; i < items.size(); ++i) {
          if (ToLower(items[i]->alias) == canon) {
            expr = plan->output_exprs_[i]->Clone();
            matched = true;
            break;
          }
        }
        if (!matched) return bound;
      }
      plan->sort_exprs_.push_back(std::move(expr));
      plan->sort_descending_.push_back(order.descending);
    }
  }
  plan->output_schema_ = Schema(std::move(output_columns));
  plan->CompileGroupFold();
  plan->ComputeAggPushdown();
  plan->limit_pushdown_eligible_ =
      !plan->has_aggregates_ && plan->limit_ >= 0 &&
      plan->sort_exprs_.empty() && plan->residual_conjuncts_.empty();
  return std::shared_ptr<const PhysicalPlan>(plan);
}

void PhysicalPlan::CompileGroupFold() {
  if (!has_aggregates_) return;
  auto fold = std::make_unique<GroupFoldSpec>();
  for (const auto& expr : group_exprs_) {
    FoldKey key;
    const Expr* column = expr.get();
    if (expr->kind == Expr::Kind::kFunc &&
        (expr->name == "substring" || expr->name == "substr") &&
        expr->args.size() == 3) {
      // substr(string-column, int-literal, int-literal) — the shape the
      // Table-I rollups group by. Literals past 2^53 stay on the Row
      // path: EvalExpr reads them through a double.
      const Expr& pos = *expr->args[1];
      const Expr& len = *expr->args[2];
      auto exact = [](const Expr& e) {
        constexpr int64_t kExact = int64_t{1} << 53;
        return e.kind == Expr::Kind::kLiteral &&
               e.literal.type() == ValueType::kInt64 &&
               e.literal.AsInt64() >= -kExact && e.literal.AsInt64() <= kExact;
      };
      if (!exact(pos) || !exact(len)) return;
      key.is_substr = true;
      key.pos = pos.literal.AsInt64();
      key.len = len.literal.AsInt64();
      column = expr->args[0].get();
    }
    if (column->kind != Expr::Kind::kColumn) return;
    key.column = static_cast<size_t>(column->col_index);
    key.type = scan_schema_.column(key.column).type;
    if (key.is_substr && key.type != ColumnType::kString) return;
    fold->keys.push_back(key);
  }
  for (const AggSpec& spec : agg_specs_) {
    FoldAgg agg;
    agg.kind = spec.kind;
    if (spec.arg != nullptr) {
      if (spec.arg->kind != Expr::Kind::kColumn) return;
      agg.column = spec.arg->col_index;
      agg.type = scan_schema_.column(static_cast<size_t>(agg.column)).type;
    }
    fold->aggs.push_back(agg);
  }
  fold_ = std::move(fold);
}

void PhysicalPlan::ComputeAggPushdown() {
  // The store runs the same fold the driver does, so the distributable
  // shapes are the fold's. Residual predicates and HAVING need raw rows
  // / final aggregates at the driver, so either disqualifies the whole
  // query; ORDER BY does not (it runs over the merged groups).
  if (fold_ == nullptr || fold_->aggs.empty() ||
      !residual_conjuncts_.empty() || having_ != nullptr) {
    return;
  }
  auto spec = std::make_unique<AggPushdownSpec>();
  for (const FoldKey& key : fold_->keys) {
    const std::string& column = scan_schema_.column(key.column).name;
    spec->group_specs.push_back(
        key.is_substr ? StrFormat("substr(%s,%lld,%lld)", column.c_str(),
                                  static_cast<long long>(key.pos),
                                  static_cast<long long>(key.len))
                      : column);
  }
  for (const FoldAgg& agg : fold_->aggs) {
    spec->agg_kinds.push_back(agg.kind);
    spec->agg_columns.push_back(
        agg.column < 0
            ? "*"
            : scan_schema_.column(static_cast<size_t>(agg.column)).name);
  }
  agg_pushdown_ = std::move(spec);
}

namespace {

bool AllHold(const std::vector<std::unique_ptr<Expr>>& conjuncts,
             const Row& row) {
  for (const auto& conjunct : conjuncts) {
    if (!EvalPredicate(*conjunct, row)) return false;
  }
  return true;
}

}  // namespace

void PhysicalPlan::ProcessRow(const Row& row, bool filters_already_applied,
                              PartialResult* partial) const {
  ++partial->rows_seen;
  const auto& conjuncts =
      filters_already_applied ? residual_conjuncts_ : all_conjuncts_;
  if (!AllHold(conjuncts, row)) return;
  ++partial->rows_passed;
  AccumulateRow(row, partial);
}

void PhysicalPlan::ProcessBatch(const RecordBatch& batch,
                                bool filters_already_applied,
                                PartialResult* partial) const {
  // The filter kernel and the fold read each cell as the plan's type. A
  // batch typed otherwise (a Parquet object's footer types its own
  // columns, and nothing holds them to the table's declared schema) goes
  // row by row through the scalar oracle, which reads every cell as it is.
  bool typed_as_planned = batch.num_columns() == scan_schema_.size();
  for (size_t c = 0; typed_as_planned && c < scan_schema_.size(); ++c) {
    typed_as_planned = batch.column(c).type() == scan_schema_.column(c).type;
  }
  Row scratch;
  if (!typed_as_planned) {
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      batch.ExtractRow(r, &scratch);
      ProcessRow(scratch, filters_already_applied, partial);
    }
    return;
  }

  const int64_t n = batch.num_rows();
  partial->rows_seen += n;
  std::vector<uint32_t> selection(static_cast<size_t>(n));
  std::iota(selection.begin(), selection.end(), 0u);
  const BatchCells cells{batch};
  if (!filters_already_applied) {
    pushed_filter_.MatchRows(cells, scan_schema_, &selection);
  }
  if (fold_ == nullptr) {
    for (uint32_t r : selection) {
      batch.ExtractRow(r, &scratch);
      if (!AllHold(residual_conjuncts_, scratch)) continue;
      ++partial->rows_passed;
      AccumulateRow(scratch, partial);
    }
    return;
  }
  if (!residual_conjuncts_.empty()) {
    size_t kept = 0;
    for (uint32_t r : selection) {
      batch.ExtractRow(r, &scratch);
      if (AllHold(residual_conjuncts_, scratch)) selection[kept++] = r;
    }
    selection.resize(kept);
  }
  partial->rows_passed += static_cast<int64_t>(selection.size());
  GroupFold fold(*fold_);
  for (uint32_t r : selection) fold.Add(cells, r, &partial->groups);
}

void PhysicalPlan::AccumulateRow(const Row& row, PartialResult* partial) const {
  if (has_aggregates_) {
    Row key;
    key.reserve(group_exprs_.size());
    for (const auto& expr : group_exprs_) key.push_back(EvalExpr(*expr, row));
    std::string serialized = SerializeGroupKey(key);
    auto [it, inserted] = partial->groups.try_emplace(std::move(serialized));
    AggPartialGroup& entry = it->second;
    if (inserted) {
      entry.key_values = std::move(key);
      entry.states.resize(agg_specs_.size());
    }
    for (size_t i = 0; i < agg_specs_.size(); ++i) {
      const AggSpec& spec = agg_specs_[i];
      if (spec.arg == nullptr) {
        entry.states[i].Update(spec.kind, Value(static_cast<int64_t>(1)));
      } else {
        entry.states[i].Update(spec.kind, EvalExpr(*spec.arg, row));
      }
    }
    return;
  }

  Row out;
  out.reserve(output_exprs_.size() + sort_exprs_.size());
  for (const auto& expr : output_exprs_) out.push_back(EvalExpr(*expr, row));
  for (const auto& expr : sort_exprs_) out.push_back(EvalExpr(*expr, row));
  partial->rows.push_back(std::move(out));
}

void PhysicalPlan::MergePartial(PartialResult* into,
                                PartialResult&& from) const {
  into->rows_seen += from.rows_seen;
  into->rows_passed += from.rows_passed;
  if (has_aggregates_) {
    for (auto& [key, entry] : from.groups) {
      auto it = into->groups.find(key);
      if (it == into->groups.end()) {
        into->groups.emplace(key, std::move(entry));
        continue;
      }
      for (size_t i = 0; i < agg_specs_.size(); ++i) {
        it->second.states[i].Merge(agg_specs_[i].kind, entry.states[i]);
      }
    }
  } else {
    into->rows.reserve(into->rows.size() + from.rows.size());
    for (auto& row : from.rows) into->rows.push_back(std::move(row));
  }
}

Status PhysicalPlan::AbsorbAggPartials(const AggPartialFrame& frame,
                                       PartialResult* partial) const {
  if (agg_pushdown_ == nullptr) {
    return Status::InvalidArgument(
        "agg partials: plan has no aggregate pushdown");
  }
  if (frame.agg_kinds.size() != agg_specs_.size()) {
    return Status::InvalidArgument("agg partials: aggregate count mismatch");
  }
  for (size_t i = 0; i < agg_specs_.size(); ++i) {
    if (frame.agg_kinds[i] != agg_specs_[i].kind) {
      return Status::InvalidArgument("agg partials: aggregate kind mismatch");
    }
  }
  partial->rows_seen += frame.rows;
  partial->rows_passed += frame.rows;
  for (const AggPartialGroup& group : frame.groups) {
    if (group.key_values.size() != group_exprs_.size() ||
        group.states.size() != agg_specs_.size()) {
      return Status::InvalidArgument("agg partials: group shape mismatch");
    }
    auto [it, inserted] =
        partial->groups.try_emplace(SerializeGroupKey(group.key_values));
    AggPartialGroup& entry = it->second;
    if (inserted) {
      entry = group;
      continue;
    }
    for (size_t i = 0; i < agg_specs_.size(); ++i) {
      entry.states[i].Merge(agg_specs_[i].kind, group.states[i]);
    }
  }
  return Status::OK();
}

Result<ResultTable> PhysicalPlan::Finalize(PartialResult&& partial) const {
  std::vector<Row> working;  // visible + sort values
  if (has_aggregates_) {
    if (partial.groups.empty() && group_exprs_.empty()) {
      // Global aggregate over zero rows still yields one row.
      AggPartialGroup entry;
      entry.states.resize(agg_specs_.size());
      partial.groups.emplace("", std::move(entry));
    }
    for (auto& [key, entry] : partial.groups) {
      Row internal = entry.key_values;
      for (size_t i = 0; i < agg_specs_.size(); ++i) {
        internal.push_back(entry.states[i].Final(agg_specs_[i].kind));
      }
      if (having_ != nullptr && !EvalPredicate(*having_, internal)) continue;
      Row out;
      out.reserve(output_exprs_.size() + sort_exprs_.size());
      for (const auto& expr : output_exprs_) {
        out.push_back(EvalExpr(*expr, internal));
      }
      for (const auto& expr : sort_exprs_) {
        out.push_back(EvalExpr(*expr, internal));
      }
      working.push_back(std::move(out));
    }
  } else {
    working = std::move(partial.rows);
  }

  if (!sort_exprs_.empty()) {
    size_t visible = output_exprs_.size();
    std::stable_sort(working.begin(), working.end(),
                     [&](const Row& a, const Row& b) {
                       for (size_t k = 0; k < sort_exprs_.size(); ++k) {
                         int cmp = a[visible + k].Compare(b[visible + k]);
                         if (cmp != 0) {
                           return sort_descending_[k] ? cmp > 0 : cmp < 0;
                         }
                       }
                       return false;
                     });
  }
  if (limit_ >= 0 && working.size() > static_cast<size_t>(limit_)) {
    working.resize(static_cast<size_t>(limit_));
  }

  ResultTable table;
  table.schema = output_schema_;
  table.rows.reserve(working.size());
  size_t visible = output_exprs_.size();
  for (Row& row : working) {
    // Drop the hidden sort values and the slots they took: a caller may
    // keep many result tables.
    row.resize(visible);
    row.shrink_to_fit();
    table.rows.push_back(std::move(row));
  }
  return table;
}

Result<ResultTable> PhysicalPlan::ExecuteLocal(
    const std::vector<Row>& scan_rows, bool filters_already_applied) const {
  PartialResult partial;
  for (const Row& row : scan_rows) {
    ProcessRow(row, filters_already_applied, &partial);
  }
  return Finalize(std::move(partial));
}

std::string PhysicalPlan::Explain() const {
  std::string out;
  out += "Scan [" + Join(required_columns_, ", ") + "]";
  out += StrFormat(" (%zu of %zu columns)\n", required_columns_.size(),
                   table_schema_.size());
  if (!pushed_filter_.IsTrue()) {
    out += "  pushed filter:   " + pushed_filter_.Serialize() +
           StrFormat("  (est. keeps %.1f%% of rows)\n",
                     estimated_row_pass_rate_ * 100);
  }
  for (const auto& conjunct : residual_conjuncts_) {
    out += "  residual filter: " + conjunct->ToString() + "\n";
  }
  if (has_aggregates_) {
    out += "Aggregate";
    if (!group_canon_.empty()) {
      out += " group by [" + Join(group_canon_, ", ") + "]";
    }
    out += " computing [";
    for (size_t i = 0; i < agg_specs_.size(); ++i) {
      if (i > 0) out += ", ";
      out += agg_specs_[i].canonical;
    }
    out += "]\n";
    if (having_ != nullptr) {
      out += "  having: " + having_->ToString() + "\n";
    }
    if (agg_pushdown_ != nullptr) {
      out += "  agg pushdown:    group=[" + agg_pushdown_->GroupParam() +
             "] aggs=[" + agg_pushdown_->AggsParam() + "]\n";
    }
  }
  out += "Project [";
  for (size_t i = 0; i < output_schema_.size(); ++i) {
    if (i > 0) out += ", ";
    out += output_schema_.column(i).name;
  }
  out += "]\n";
  if (!sort_exprs_.empty()) {
    out += "Sort [";
    for (size_t i = 0; i < sort_exprs_.size(); ++i) {
      if (i > 0) out += ", ";
      out += sort_exprs_[i]->ToString();
      if (sort_descending_[i]) out += " desc";
    }
    out += "]\n";
  }
  if (limit_ >= 0) out += StrFormat("Limit %lld\n",
                                    static_cast<long long>(limit_));
  return out;
}

Result<ResultTable> ExecuteSqlOverRows(std::string_view sql,
                                       const Schema& table_schema,
                                       const std::vector<Row>& table_rows) {
  SCOOP_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  SCOOP_ASSIGN_OR_RETURN(auto plan, PhysicalPlan::Create(stmt, table_schema));
  // Project table rows down to the plan's scan schema.
  std::vector<int> indices;
  for (const std::string& name : plan->required_columns()) {
    indices.push_back(table_schema.IndexOf(name));
  }
  std::vector<Row> scan_rows;
  scan_rows.reserve(table_rows.size());
  for (const Row& row : table_rows) {
    Row projected;
    projected.reserve(indices.size());
    for (int idx : indices) {
      projected.push_back(idx >= 0 && static_cast<size_t>(idx) < row.size()
                              ? row[static_cast<size_t>(idx)]
                              : Value::Null());
    }
    scan_rows.push_back(std::move(projected));
  }
  return plan->ExecuteLocal(scan_rows, /*filters_already_applied=*/false);
}

}  // namespace scoop
