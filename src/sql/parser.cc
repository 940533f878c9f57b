#include "sql/parser.h"

#include <cctype>

#include "common/strings.h"

namespace scoop {

namespace {

enum class TokenKind {
  kEnd,
  kIdent,
  kNumber,
  kString,
  kSymbol,  // punctuation / operator
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // identifier (original case), number, string body
  std::string lower;  // lowercased identifier for keyword checks
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipSpace();
      if (pos_ >= input_.size()) break;
      char c = input_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
                input_[pos_] == '_')) {
          ++pos_;
        }
        Token t;
        t.kind = TokenKind::kIdent;
        t.text = std::string(input_.substr(start, pos_ - start));
        t.lower = ToLower(t.text);
        tokens.push_back(std::move(t));
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && pos_ + 1 < input_.size() &&
                  std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
        size_t start = pos_;
        bool seen_dot = false;
        while (pos_ < input_.size() &&
               (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
                (!seen_dot && input_[pos_] == '.'))) {
          if (input_[pos_] == '.') seen_dot = true;
          ++pos_;
        }
        Token t;
        t.kind = TokenKind::kNumber;
        t.text = std::string(input_.substr(start, pos_ - start));
        tokens.push_back(std::move(t));
      } else if (c == '\'') {
        ++pos_;
        std::string body;
        bool closed = false;
        while (pos_ < input_.size()) {
          char ch = input_[pos_++];
          if (ch == '\'') {
            // '' is an escaped quote inside a string literal.
            if (pos_ < input_.size() && input_[pos_] == '\'') {
              body.push_back('\'');
              ++pos_;
            } else {
              closed = true;
              break;
            }
          } else {
            body.push_back(ch);
          }
        }
        if (!closed) {
          return Status::InvalidArgument("unterminated string literal");
        }
        Token t;
        t.kind = TokenKind::kString;
        t.text = std::move(body);
        tokens.push_back(std::move(t));
      } else {
        // Multi-char operators first.
        static const char* kTwoChar[] = {"<=", ">=", "!=", "<>"};
        std::string sym(1, c);
        if (pos_ + 1 < input_.size()) {
          std::string two = std::string(input_.substr(pos_, 2));
          for (const char* op : kTwoChar) {
            if (two == op) {
              sym = two;
              break;
            }
          }
        }
        pos_ += sym.size();
        Token t;
        t.kind = TokenKind::kSymbol;
        t.text = sym;
        tokens.push_back(std::move(t));
      }
    }
    tokens.push_back(Token{});  // kEnd sentinel
    return tokens;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

// Recursive-descent parser with classic precedence climbing:
//   or > and > not > comparison/LIKE > additive > multiplicative > unary.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> ParseSelect() {
    SelectStatement stmt;
    SCOOP_RETURN_IF_ERROR(ExpectKeyword("select"));
    while (true) {
      SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr, ParseExpr());
      SelectItem item;
      item.expr = std::move(expr);
      if (AtKeyword("as")) {
        Advance();
        SCOOP_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
      } else if (Peek().kind == TokenKind::kIdent && !IsClauseKeyword(Peek())) {
        // Implicit alias: SELECT expr alias
        item.alias = Peek().text;
        Advance();
      }
      stmt.items.push_back(std::move(item));
      if (!AtSymbol(",")) break;
      Advance();
    }
    SCOOP_RETURN_IF_ERROR(ExpectKeyword("from"));
    SCOOP_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (AtKeyword("where")) {
      Advance();
      SCOOP_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (AtKeyword("group")) {
      Advance();
      SCOOP_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr, ParseExpr());
        stmt.group_by.push_back(std::move(expr));
        if (!AtSymbol(",")) break;
        Advance();
      }
    }
    if (AtKeyword("having")) {
      Advance();
      SCOOP_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (AtKeyword("order")) {
      Advance();
      SCOOP_RETURN_IF_ERROR(ExpectKeyword("by"));
      while (true) {
        OrderItem item;
        SCOOP_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AtKeyword("asc")) {
          Advance();
        } else if (AtKeyword("desc")) {
          item.descending = true;
          Advance();
        }
        stmt.order_by.push_back(std::move(item));
        if (!AtSymbol(",")) break;
        Advance();
      }
    }
    if (AtKeyword("limit")) {
      Advance();
      if (Peek().kind != TokenKind::kNumber) {
        return Status::InvalidArgument("LIMIT requires a number");
      }
      SCOOP_ASSIGN_OR_RETURN(stmt.limit, ParseInt64(Peek().text));
      Advance();
    }
    if (AtSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("unexpected trailing token: " +
                                     Peek().text);
    }
    return stmt;
  }

  Result<std::unique_ptr<Expr>> ParseExpr() { return ParseOr(); }

  bool FullyConsumed() const { return Peek().kind == TokenKind::kEnd; }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }
  bool AtKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kIdent && Peek().lower == kw;
  }
  bool AtSymbol(std::string_view s) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == s;
  }
  static bool IsClauseKeyword(const Token& t) {
    static const char* kClauses[] = {"from",    "where", "group", "order",
                                     "limit",   "by",    "as",    "asc",
                                     "desc",    "and",   "or",    "not",
                                     "like",    "having", "between", "in",
                                     "is"};
    for (const char* kw : kClauses) {
      if (t.lower == kw) return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AtKeyword(kw)) {
      return Status::InvalidArgument("expected keyword '" + std::string(kw) +
                                     "', got '" + Peek().text + "'");
    }
    Advance();
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected identifier, got '" +
                                     Peek().text + "'");
    }
    std::string out = Peek().text;
    Advance();
    return out;
  }

  Result<std::unique_ptr<Expr>> ParseOr() {
    SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAnd());
    while (AtKeyword("or")) {
      Advance();
      SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAnd());
      lhs = Expr::Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseNot());
    while (AtKeyword("and")) {
      Advance();
      SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseNot());
      lhs = Expr::Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseNot() {
    if (AtKeyword("not")) {
      Advance();
      SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseNot());
      return Expr::Unary(UnaryOp::kNot, std::move(arg));
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseAdditive());
    while (true) {
      // Postfix predicate forms first: IS [NOT] NULL, [NOT] BETWEEN,
      // [NOT] IN (...). They desugar into the core expression algebra.
      if (AtKeyword("is")) {
        Advance();
        bool negated = false;
        if (AtKeyword("not")) {
          Advance();
          negated = true;
        }
        if (!AtKeyword("null")) {
          return Status::InvalidArgument("expected NULL after IS [NOT]");
        }
        Advance();
        std::vector<std::unique_ptr<Expr>> args;
        args.push_back(std::move(lhs));
        lhs = Expr::Func(negated ? "is_not_null" : "is_null",
                         std::move(args));
        continue;
      }
      bool negate_postfix = false;
      size_t not_checkpoint = pos_;
      if (AtKeyword("not")) {
        Advance();
        if (AtKeyword("between") || AtKeyword("in")) {
          negate_postfix = true;
        } else {
          pos_ = not_checkpoint;  // a plain NOT belongs to a higher level
          break;
        }
      }
      if (AtKeyword("between")) {
        // x BETWEEN a AND b  ==>  x >= a AND x <= b
        Advance();
        SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> low, ParseAdditive());
        SCOOP_RETURN_IF_ERROR(ExpectKeyword("and"));
        SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> high, ParseAdditive());
        auto ge = Expr::Binary(BinaryOp::kGe, lhs->Clone(), std::move(low));
        auto le = Expr::Binary(BinaryOp::kLe, std::move(lhs), std::move(high));
        lhs = Expr::Binary(BinaryOp::kAnd, std::move(ge), std::move(le));
        if (negate_postfix) lhs = Expr::Unary(UnaryOp::kNot, std::move(lhs));
        continue;
      }
      if (AtKeyword("in")) {
        // x IN (a, b, c)  ==>  x = a OR x = b OR x = c
        Advance();
        if (!AtSymbol("(")) {
          return Status::InvalidArgument("expected '(' after IN");
        }
        Advance();
        std::unique_ptr<Expr> disjunction;
        while (true) {
          SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> option, ParseExpr());
          auto eq = Expr::Binary(BinaryOp::kEq, lhs->Clone(),
                                 std::move(option));
          disjunction = disjunction == nullptr
                            ? std::move(eq)
                            : Expr::Binary(BinaryOp::kOr,
                                           std::move(disjunction),
                                           std::move(eq));
          if (!AtSymbol(",")) break;
          Advance();
        }
        if (!AtSymbol(")")) {
          return Status::InvalidArgument("expected ')' after IN list");
        }
        Advance();
        if (disjunction == nullptr) {
          return Status::InvalidArgument("empty IN list");
        }
        lhs = std::move(disjunction);
        if (negate_postfix) lhs = Expr::Unary(UnaryOp::kNot, std::move(lhs));
        continue;
      }

      BinaryOp op;
      if (AtSymbol("=")) {
        op = BinaryOp::kEq;
      } else if (AtSymbol("!=") || AtSymbol("<>")) {
        op = BinaryOp::kNe;
      } else if (AtSymbol("<=")) {
        op = BinaryOp::kLe;
      } else if (AtSymbol(">=")) {
        op = BinaryOp::kGe;
      } else if (AtSymbol("<")) {
        op = BinaryOp::kLt;
      } else if (AtSymbol(">")) {
        op = BinaryOp::kGt;
      } else if (AtKeyword("like")) {
        op = BinaryOp::kLike;
      } else {
        break;
      }
      Advance();
      SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseAdditive());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseMultiplicative());
    while (AtSymbol("+") || AtSymbol("-")) {
      BinaryOp op = AtSymbol("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseMultiplicative());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseUnary());
    while (AtSymbol("*") || AtSymbol("/")) {
      BinaryOp op = AtSymbol("*") ? BinaryOp::kMul : BinaryOp::kDiv;
      Advance();
      SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseUnary());
      lhs = Expr::Binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (AtSymbol("-")) {
      Advance();
      // A minus right before a number is the literal's sign: the catalyst
      // can push `vid > -1`, and -9223372036854775808 is in range.
      if (Peek().kind == TokenKind::kNumber) return ParseNumber("-");
      SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseUnary());
      return Expr::Unary(UnaryOp::kNeg, std::move(arg));
    }
    return ParsePrimary();
  }

  // Consumes the number token, with `sign` ("" or "-") before its text.
  Result<std::unique_ptr<Expr>> ParseNumber(const std::string& sign) {
    std::string text = sign + Peek().text;
    Advance();
    if (text.find('.') != std::string::npos) {
      SCOOP_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      return Expr::Lit(Value(v));
    }
    SCOOP_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
    return Expr::Lit(Value(v));
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kNumber:
        return ParseNumber("");
      case TokenKind::kString: {
        std::string body = t.text;
        Advance();
        return Expr::Lit(Value(std::move(body)));
      }
      case TokenKind::kIdent: {
        if (t.lower == "null") {
          Advance();
          return Expr::Lit(Value::Null());
        }
        std::string name = t.text;
        Advance();
        if (AtSymbol("(")) {
          Advance();
          std::vector<std::unique_ptr<Expr>> args;
          if (!AtSymbol(")")) {
            while (true) {
              if (AtSymbol("*")) {
                Advance();
                args.push_back(Expr::Star());
              } else {
                SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseExpr());
                args.push_back(std::move(arg));
              }
              if (!AtSymbol(",")) break;
              Advance();
            }
          }
          if (!AtSymbol(")")) {
            return Status::InvalidArgument("expected ')' after arguments of " +
                                           name);
          }
          Advance();
          return Expr::Func(std::move(name), std::move(args));
        }
        return Expr::Col(std::move(name));
      }
      case TokenKind::kSymbol:
        if (t.text == "(") {
          Advance();
          SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseExpr());
          if (!AtSymbol(")")) {
            return Status::InvalidArgument("expected ')'");
          }
          Advance();
          return inner;
        }
        if (t.text == "*") {
          Advance();
          return Expr::Star();
        }
        return Status::InvalidArgument("unexpected symbol '" + t.text + "'");
      case TokenKind::kEnd:
        return Status::InvalidArgument("unexpected end of input");
    }
    return Status::Internal("unreachable");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectStatement> ParseSql(std::string_view sql) {
  Lexer lexer(sql);
  SCOOP_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseSelect();
}

Result<std::unique_ptr<Expr>> ParseExpression(std::string_view text) {
  Lexer lexer(text);
  SCOOP_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  SCOOP_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr, parser.ParseExpr());
  if (!parser.FullyConsumed()) {
    return Status::InvalidArgument("trailing tokens after expression");
  }
  return expr;
}

}  // namespace scoop
