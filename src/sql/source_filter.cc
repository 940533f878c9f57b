#include "sql/source_filter.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "common/strings.h"

namespace scoop {

namespace {

void AppendQuoted(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

// Minimal s-expression tokenizer/parser for the filter wire format.
class SexpParser {
 public:
  explicit SexpParser(std::string_view text) : text_(text) {}

  // `depth` counts this expression's enclosing parentheses, itself
  // included.
  Result<SourceFilter> ParseFilter(int depth = 1) {
    if (depth > SourceFilter::kMaxParseDepth) {
      return Status::InvalidArgument(StrFormat(
          "filter nested deeper than %d", SourceFilter::kMaxParseDepth));
    }
    SkipSpace();
    if (!Consume('(')) return Status::InvalidArgument("expected '('");
    SCOOP_ASSIGN_OR_RETURN(std::string op_name, ParseToken());
    SourceFilter filter;
    if (op_name == "true") {
      filter.op = SourceFilter::Op::kTrue;
    } else if (op_name == "and" || op_name == "or") {
      filter.op = op_name == "and" ? SourceFilter::Op::kAnd
                                   : SourceFilter::Op::kOr;
      SkipSpace();
      while (!AtEnd() && Peek() == '(') {
        SCOOP_ASSIGN_OR_RETURN(SourceFilter child, ParseFilter(depth + 1));
        filter.children.push_back(std::move(child));
        SkipSpace();
      }
      if (filter.children.empty()) {
        return Status::InvalidArgument(op_name + " needs children");
      }
    } else if (op_name == "not") {
      SkipSpace();
      SCOOP_ASSIGN_OR_RETURN(SourceFilter child, ParseFilter(depth + 1));
      filter.op = SourceFilter::Op::kNot;
      filter.children.push_back(std::move(child));
    } else if (op_name == "isnull" || op_name == "notnull") {
      filter.op = op_name == "isnull" ? SourceFilter::Op::kIsNull
                                      : SourceFilter::Op::kIsNotNull;
      SCOOP_ASSIGN_OR_RETURN(filter.column, ParseToken());
    } else {
      static const std::pair<const char*, SourceFilter::Op> kOps[] = {
          {"eq", SourceFilter::Op::kEq}, {"ne", SourceFilter::Op::kNe},
          {"lt", SourceFilter::Op::kLt}, {"le", SourceFilter::Op::kLe},
          {"gt", SourceFilter::Op::kGt}, {"ge", SourceFilter::Op::kGe},
          {"like", SourceFilter::Op::kLike}};
      bool found = false;
      for (const auto& [name, op] : kOps) {
        if (op_name == name) {
          filter.op = op;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("unknown filter op: " + op_name);
      }
      SCOOP_ASSIGN_OR_RETURN(filter.column, ParseToken());
      SkipSpace();
      if (AtEnd()) return Status::InvalidArgument("missing literal");
      if (Peek() == '"') {
        SCOOP_ASSIGN_OR_RETURN(filter.literal, ParseQuoted());
        filter.literal_is_number = false;
      } else {
        SCOOP_ASSIGN_OR_RETURN(filter.literal, ParseToken());
        filter.literal_is_number = true;
      }
    }
    SkipSpace();
    if (!Consume(')')) return Status::InvalidArgument("expected ')'");
    return filter;
  }

  bool FullyConsumed() {
    SkipSpace();
    return AtEnd();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  Result<std::string> ParseToken() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '(' && text_[pos_] != ')' &&
           text_[pos_] != '"' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return Status::InvalidArgument("expected token");
    return std::string(text_.substr(start, pos_ - start));
  }
  Result<std::string> ParseQuoted() {
    if (!Consume('"')) return Status::InvalidArgument("expected '\"'");
    std::string out;
    while (!AtEnd()) {
      char c = text_[pos_++];
      if (c == '\\') {
        if (AtEnd()) return Status::InvalidArgument("dangling escape");
        out.push_back(text_[pos_++]);
      } else if (c == '"') {
        return out;
      } else {
        out.push_back(c);
      }
    }
    return Status::InvalidArgument("unterminated string literal");
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string_view SourceFilterOpName(SourceFilter::Op op) {
  switch (op) {
    case SourceFilter::Op::kTrue:
      return "true";
    case SourceFilter::Op::kAnd:
      return "and";
    case SourceFilter::Op::kOr:
      return "or";
    case SourceFilter::Op::kNot:
      return "not";
    case SourceFilter::Op::kEq:
      return "eq";
    case SourceFilter::Op::kNe:
      return "ne";
    case SourceFilter::Op::kLt:
      return "lt";
    case SourceFilter::Op::kLe:
      return "le";
    case SourceFilter::Op::kGt:
      return "gt";
    case SourceFilter::Op::kGe:
      return "ge";
    case SourceFilter::Op::kLike:
      return "like";
    case SourceFilter::Op::kIsNull:
      return "isnull";
    case SourceFilter::Op::kIsNotNull:
      return "notnull";
  }
  return "?";
}

SourceFilter SourceFilter::Compare(Op op, std::string column,
                                   const Value& literal) {
  SourceFilter f;
  f.op = op;
  f.column = std::move(column);
  if (literal.type() == ValueType::kDouble) {
    // Shortest round-trip text, not Value::ToString's display rounding:
    // %.6g would push 1234567.5 as 1.23457e+06.
    char buf[32];  // the longest shortest-form double is 24 characters
    char* end =
        std::to_chars(buf, buf + sizeof(buf), literal.AsDoubleExact()).ptr;
    f.literal.assign(buf, end);
    // An integral double keeps a ".0", so the store compares it as a
    // double (like the driver), never exactly against an int64 column.
    if (f.literal.find_first_of(".ein") == std::string::npos) {
      f.literal += ".0";
    }
  } else {
    f.literal = literal.ToString();
  }
  f.literal_is_number = literal.type() == ValueType::kInt64 ||
                        literal.type() == ValueType::kDouble;
  return f;
}

SourceFilter SourceFilter::Like(std::string column, std::string pattern) {
  SourceFilter f;
  f.op = Op::kLike;
  f.column = std::move(column);
  f.literal = std::move(pattern);
  return f;
}

SourceFilter SourceFilter::IsNull(std::string column, bool negated) {
  SourceFilter f;
  f.op = negated ? Op::kIsNotNull : Op::kIsNull;
  f.column = std::move(column);
  return f;
}

SourceFilter SourceFilter::And(std::vector<SourceFilter> children) {
  if (children.empty()) return True();
  if (children.size() == 1) return std::move(children[0]);
  SourceFilter f;
  f.op = Op::kAnd;
  f.children = std::move(children);
  return f;
}

SourceFilter SourceFilter::Or(std::vector<SourceFilter> children) {
  if (children.size() == 1) return std::move(children[0]);
  SourceFilter f;
  f.op = Op::kOr;
  f.children = std::move(children);
  return f;
}

SourceFilter SourceFilter::Not(SourceFilter child) {
  SourceFilter f;
  f.op = Op::kNot;
  f.children.push_back(std::move(child));
  return f;
}

std::string SourceFilter::Serialize() const {
  std::string out = "(";
  out += SourceFilterOpName(op);
  switch (op) {
    case Op::kTrue:
      break;
    case Op::kAnd:
    case Op::kOr:
    case Op::kNot:
      for (const SourceFilter& child : children) {
        out += " ";
        out += child.Serialize();
      }
      break;
    case Op::kIsNull:
    case Op::kIsNotNull:
      out += " " + column;
      break;
    default:
      out += " " + column + " ";
      if (literal_is_number) {
        out += literal;
      } else {
        AppendQuoted(&out, literal);
      }
      break;
  }
  out += ")";
  return out;
}

Result<SourceFilter> SourceFilter::Parse(std::string_view text) {
  SexpParser parser(text);
  SCOOP_ASSIGN_OR_RETURN(SourceFilter filter, parser.ParseFilter());
  if (!parser.FullyConsumed()) {
    return Status::InvalidArgument("trailing data after filter expression");
  }
  return filter;
}

SourceFilter::Leaf SourceFilter::ResolveLeaf(const Schema& schema) const {
  Leaf leaf;
  const int idx = schema.IndexOf(column);
  if (idx < 0) return leaf;
  leaf.column = static_cast<size_t>(idx);
  leaf.type = schema.column(leaf.column).type;
  const bool string_column = leaf.type == ColumnType::kString;
  switch (op) {
    case Op::kIsNull:
      leaf.kind = Leaf::Kind::kIsNull;
      return leaf;
    case Op::kIsNotNull:
      leaf.kind = Leaf::Kind::kIsNotNull;
      return leaf;
    case Op::kLike:
      if (string_column) leaf.kind = Leaf::Kind::kLike;
      return leaf;
    default:
      break;
  }
  // A number against a string column, or a string against a numeric one.
  if (literal_is_number == string_column) return leaf;
  if (string_column) {
    leaf.kind = Leaf::Kind::kString;
    return leaf;
  }
  Result<double> as_double = ParseDouble(literal);
  if (!as_double.ok()) return leaf;  // an unparseable literal never matches
  leaf.double_literal = *as_double;
  leaf.kind = Leaf::Kind::kDouble;
  if (leaf.type == ColumnType::kInt64) {
    // A double would round integers past 2^53: compare exactly when the
    // literal is an integer.
    Result<int64_t> as_int = ParseInt64(literal);
    if (as_int.ok()) {
      leaf.kind = Leaf::Kind::kInt64;
      leaf.int64_literal = *as_int;
    } else {
      leaf.kind = Leaf::Kind::kInt64AsDouble;
    }
  }
  return leaf;
}

bool SourceFilter::Holds(int cmp) const {
  switch (op) {
    case Op::kEq:
      return cmp == 0;
    case Op::kNe:
      return cmp != 0;
    case Op::kLt:
      return cmp < 0;
    case Op::kLe:
      return cmp <= 0;
    case Op::kGt:
      return cmp > 0;
    case Op::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

void SourceFilter::CollectColumns(std::set<std::string>* out) const {
  if (!column.empty()) out->insert(ToLower(column));
  for (const SourceFilter& child : children) child.CollectColumns(out);
}

double SourceFilter::EstimateSelectivity() const {
  // Returns the estimated fraction of rows that *pass*.
  switch (op) {
    case Op::kTrue:
      return 1.0;
    case Op::kAnd: {
      double pass = 1.0;
      for (const SourceFilter& child : children) {
        pass *= child.EstimateSelectivity();
      }
      return pass;
    }
    case Op::kOr: {
      double fail = 1.0;
      for (const SourceFilter& child : children) {
        fail *= 1.0 - child.EstimateSelectivity();
      }
      return 1.0 - fail;
    }
    case Op::kNot:
      return 1.0 - children[0].EstimateSelectivity();
    case Op::kEq:
      return 0.05;
    case Op::kNe:
      return 0.95;
    case Op::kLike: {
      // Longer concrete prefixes select fewer rows.
      size_t prefix = literal.find_first_of("%_");
      if (prefix == std::string::npos) return 0.05;  // exact match
      return std::max(0.01, 0.5 / (1.0 + static_cast<double>(prefix)));
    }
    case Op::kIsNull:
      return 0.02;
    case Op::kIsNotNull:
      return 0.98;
    default:
      return 0.33;  // range predicates
  }
}

bool SourceFilter::operator==(const SourceFilter& other) const {
  return op == other.op && column == other.column &&
         literal == other.literal &&
         literal_is_number == other.literal_is_number &&
         children == other.children;
}

}  // namespace scoop
