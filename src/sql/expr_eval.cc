#include "sql/expr_eval.h"

#include <cctype>
#include <cmath>
#include <optional>

#include "common/strings.h"

namespace scoop {

namespace {

// Numeric view of a value for arithmetic; nullopt when not interpretable.
std::optional<double> NumericOf(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
      return static_cast<double>(v.AsInt64());
    case ValueType::kDouble:
      return v.AsDoubleExact();
    case ValueType::kString: {
      auto parsed = ParseDouble(v.AsString());
      if (parsed.ok()) return *parsed;
      return std::nullopt;
    }
    case ValueType::kNull:
      return std::nullopt;
  }
  return std::nullopt;
}

Value EvalArith(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  // Integer arithmetic stays integral except for division, and wraps in
  // two's complement like the aggregates' integer sums (Spark's non-ANSI
  // mode): signed overflow is UB, unsigned arithmetic wraps.
  if (op != BinaryOp::kDiv && lhs.type() == ValueType::kInt64 &&
      rhs.type() == ValueType::kInt64) {
    uint64_t a = static_cast<uint64_t>(lhs.AsInt64());
    uint64_t b = static_cast<uint64_t>(rhs.AsInt64());
    switch (op) {
      case BinaryOp::kAdd:
        return Value(static_cast<int64_t>(a + b));
      case BinaryOp::kSub:
        return Value(static_cast<int64_t>(a - b));
      case BinaryOp::kMul:
        return Value(static_cast<int64_t>(a * b));
      default:
        break;
    }
  }
  auto a = NumericOf(lhs);
  auto b = NumericOf(rhs);
  if (!a || !b) return Value::Null();
  switch (op) {
    case BinaryOp::kAdd:
      return Value(*a + *b);
    case BinaryOp::kSub:
      return Value(*a - *b);
    case BinaryOp::kMul:
      return Value(*a * *b);
    case BinaryOp::kDiv:
      if (*b == 0.0) return Value::Null();
      return Value(*a / *b);
    default:
      return Value::Null();
  }
}

Value EvalComparison(BinaryOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value(static_cast<int64_t>(0));
  int cmp = lhs.Compare(rhs);
  bool result = false;
  switch (op) {
    case BinaryOp::kEq:
      result = cmp == 0;
      break;
    case BinaryOp::kNe:
      result = cmp != 0;
      break;
    case BinaryOp::kLt:
      result = cmp < 0;
      break;
    case BinaryOp::kLe:
      result = cmp <= 0;
      break;
    case BinaryOp::kGt:
      result = cmp > 0;
      break;
    case BinaryOp::kGe:
      result = cmp >= 0;
      break;
    default:
      break;
  }
  return Value(static_cast<int64_t>(result ? 1 : 0));
}

bool Truthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt64:
      return v.AsInt64() != 0;
    case ValueType::kDouble:
      return v.AsDoubleExact() != 0.0;
    case ValueType::kString:
      return !v.AsString().empty();
  }
  return false;
}

}  // namespace

Status BindExpr(Expr* expr, const Schema& schema) {
  switch (expr->kind) {
    case Expr::Kind::kColumn: {
      int idx = schema.IndexOf(expr->name);
      if (idx < 0) return Status::NotFound("unknown column: " + expr->name);
      expr->col_index = idx;
      return Status::OK();
    }
    case Expr::Kind::kFunc:
      if (expr->IsAggregateCall()) {
        return Status::InvalidArgument(
            "aggregate call in scalar context: " + expr->ToString());
      }
      break;
    default:
      break;
  }
  for (auto& arg : expr->args) {
    if (arg->kind == Expr::Kind::kStar) continue;
    SCOOP_RETURN_IF_ERROR(BindExpr(arg.get(), schema));
  }
  return Status::OK();
}

std::string SqlSubstring(const std::string& s, int64_t pos, int64_t len) {
  return std::string(SqlSubstringView(s, pos, len));
}

std::string_view SqlSubstringView(std::string_view s, int64_t pos,
                                  int64_t len) {
  if (len < 0) len = 0;
  int64_t n = static_cast<int64_t>(s.size());
  int64_t start;
  if (pos > 0) {
    start = pos - 1;
  } else if (pos == 0) {
    start = 0;
  } else {
    start = n + pos;
    if (start < 0) {
      // Spark keeps only the part that lands inside the string.
      len += start;
      start = 0;
      if (len < 0) len = 0;
    }
  }
  if (start >= n) return {};
  len = std::min(len, n - start);
  return s.substr(static_cast<size_t>(start), static_cast<size_t>(len));
}

Value EvalExpr(const Expr& expr, const Row& row) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumn:
      if (expr.col_index < 0 ||
          static_cast<size_t>(expr.col_index) >= row.size()) {
        return Value::Null();
      }
      return row[static_cast<size_t>(expr.col_index)];
    case Expr::Kind::kStar:
      return Value::Null();
    case Expr::Kind::kUnary: {
      Value v = EvalExpr(*expr.args[0], row);
      if (expr.uop == UnaryOp::kNot) {
        return Value(static_cast<int64_t>(Truthy(v) ? 0 : 1));
      }
      if (v.is_null()) return Value::Null();
      if (v.type() == ValueType::kInt64) {
        return Value(static_cast<int64_t>(
            uint64_t{0} - static_cast<uint64_t>(v.AsInt64())));
      }
      auto num = NumericOf(v);
      if (!num) return Value::Null();
      return Value(-*num);
    }
    case Expr::Kind::kBinary: {
      switch (expr.bop) {
        case BinaryOp::kAnd: {
          // Short-circuit; null behaves as false (see header contract).
          if (!Truthy(EvalExpr(*expr.args[0], row))) {
            return Value(static_cast<int64_t>(0));
          }
          return Value(static_cast<int64_t>(
              Truthy(EvalExpr(*expr.args[1], row)) ? 1 : 0));
        }
        case BinaryOp::kOr: {
          if (Truthy(EvalExpr(*expr.args[0], row))) {
            return Value(static_cast<int64_t>(1));
          }
          return Value(static_cast<int64_t>(
              Truthy(EvalExpr(*expr.args[1], row)) ? 1 : 0));
        }
        case BinaryOp::kLike: {
          Value lhs = EvalExpr(*expr.args[0], row);
          Value rhs = EvalExpr(*expr.args[1], row);
          if (lhs.is_null() || rhs.is_null()) {
            return Value(static_cast<int64_t>(0));
          }
          return Value(static_cast<int64_t>(
              LikeMatch(lhs.ToString(), rhs.ToString()) ? 1 : 0));
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return EvalComparison(expr.bop, EvalExpr(*expr.args[0], row),
                                EvalExpr(*expr.args[1], row));
        default:
          return EvalArith(expr.bop, EvalExpr(*expr.args[0], row),
                           EvalExpr(*expr.args[1], row));
      }
    }
    case Expr::Kind::kFunc: {
      if (expr.name == "substring" || expr.name == "substr") {
        if (expr.args.size() != 3) return Value::Null();
        Value str = EvalExpr(*expr.args[0], row);
        Value pos = EvalExpr(*expr.args[1], row);
        Value len = EvalExpr(*expr.args[2], row);
        if (str.is_null() || pos.is_null() || len.is_null()) {
          return Value::Null();
        }
        return Value(SqlSubstring(str.ToString(),
                                  static_cast<int64_t>(pos.ToDouble()),
                                  static_cast<int64_t>(len.ToDouble())));
      }
      if (expr.name == "upper" || expr.name == "lower") {
        if (expr.args.size() != 1) return Value::Null();
        Value str = EvalExpr(*expr.args[0], row);
        if (str.is_null()) return Value::Null();
        std::string s = str.ToString();
        for (char& c : s) {
          c = expr.name == "upper"
                  ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                  : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        }
        return Value(std::move(s));
      }
      if (expr.name == "length") {
        if (expr.args.size() != 1) return Value::Null();
        Value str = EvalExpr(*expr.args[0], row);
        if (str.is_null()) return Value::Null();
        return Value(static_cast<int64_t>(str.ToString().size()));
      }
      if (expr.name == "abs") {
        if (expr.args.size() != 1) return Value::Null();
        Value v = EvalExpr(*expr.args[0], row);
        auto num = NumericOf(v);
        if (!num) return Value::Null();
        if (v.type() == ValueType::kInt64) {
          return Value(std::abs(v.AsInt64()));
        }
        return Value(std::abs(*num));
      }
      if (expr.name == "is_null" || expr.name == "is_not_null") {
        if (expr.args.size() != 1) return Value::Null();
        bool null = EvalExpr(*expr.args[0], row).is_null();
        bool result = expr.name == "is_null" ? null : !null;
        return Value(static_cast<int64_t>(result ? 1 : 0));
      }
      if (expr.name == "coalesce") {
        for (const auto& arg : expr.args) {
          Value v = EvalExpr(*arg, row);
          if (!v.is_null()) return v;
        }
        return Value::Null();
      }
      if (expr.name == "concat") {
        std::string out;
        for (const auto& arg : expr.args) {
          out += EvalExpr(*arg, row).ToString();
        }
        return Value(std::move(out));
      }
      return Value::Null();
    }
  }
  return Value::Null();
}

bool EvalPredicate(const Expr& expr, const Row& row) {
  return Truthy(EvalExpr(expr, row));
}

void CollectColumns(const Expr& expr, std::set<std::string>* out) {
  if (expr.kind == Expr::Kind::kColumn) out->insert(ToLower(expr.name));
  for (const auto& arg : expr.args) CollectColumns(*arg, out);
}

ColumnType InferType(const Expr& expr, const Schema& schema) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      switch (expr.literal.type()) {
        case ValueType::kInt64:
          return ColumnType::kInt64;
        case ValueType::kDouble:
          return ColumnType::kDouble;
        default:
          return ColumnType::kString;
      }
    case Expr::Kind::kColumn: {
      int idx = schema.IndexOf(expr.name);
      if (idx < 0) return ColumnType::kString;
      return schema.column(static_cast<size_t>(idx)).type;
    }
    case Expr::Kind::kStar:
      return ColumnType::kString;
    case Expr::Kind::kUnary:
      if (expr.uop == UnaryOp::kNot) return ColumnType::kInt64;
      return InferType(*expr.args[0], schema);
    case Expr::Kind::kBinary:
      switch (expr.bop) {
        case BinaryOp::kDiv:
          return ColumnType::kDouble;
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul: {
          ColumnType lhs = InferType(*expr.args[0], schema);
          ColumnType rhs = InferType(*expr.args[1], schema);
          if (lhs == ColumnType::kInt64 && rhs == ColumnType::kInt64) {
            return ColumnType::kInt64;
          }
          return ColumnType::kDouble;
        }
        default:
          return ColumnType::kInt64;  // booleans render as 0/1
      }
    case Expr::Kind::kFunc:
      if (expr.name == "substring" || expr.name == "substr" ||
          expr.name == "upper" || expr.name == "lower" ||
          expr.name == "concat") {
        return ColumnType::kString;
      }
      if (expr.name == "length" || expr.name == "count" ||
          expr.name == "is_null" || expr.name == "is_not_null") {
        return ColumnType::kInt64;
      }
      if (expr.name == "sum" || expr.name == "avg") {
        return ColumnType::kDouble;
      }
      if (expr.name == "min" || expr.name == "max" ||
          expr.name == "first_value" || expr.name == "coalesce" ||
          expr.name == "abs") {
        if (!expr.args.empty()) return InferType(*expr.args[0], schema);
      }
      return ColumnType::kString;
  }
  return ColumnType::kString;
}

}  // namespace scoop
