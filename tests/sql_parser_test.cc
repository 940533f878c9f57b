#include <gtest/gtest.h>

#include <limits>

#include "sql/parser.h"
#include "workload/queries.h"

namespace scoop {
namespace {

TEST(ParserTest, MinimalSelect) {
  auto stmt = ParseSql("SELECT a FROM t");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->table, "t");
  EXPECT_EQ(stmt->items[0].expr->kind, Expr::Kind::kColumn);
  EXPECT_EQ(stmt->where, nullptr);
  EXPECT_EQ(stmt->limit, -1);
}

TEST(ParserTest, SelectStar) {
  auto stmt = ParseSql("select * from t limit 10");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].expr->kind, Expr::Kind::kStar);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(ParserTest, AliasesExplicitAndImplicit) {
  auto stmt = ParseSql("SELECT a AS x, b y, c FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].alias, "x");
  EXPECT_EQ(stmt->items[1].alias, "y");
  EXPECT_EQ(stmt->items[2].alias, "");
}

TEST(ParserTest, WhereWithPrecedence) {
  auto stmt = ParseSql("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(stmt.ok());
  // AND binds tighter than OR.
  EXPECT_EQ(stmt->where->ToString(),
            "((a = 1) or ((b = 2) and (c = 3)))");
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto expr = ParseExpression("1 + 2 * 3 - 4 / 2");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->ToString(), "((1 + (2 * 3)) - (4 / 2))");
}

TEST(ParserTest, ComparisonOperators) {
  for (const char* op : {"=", "!=", "<>", "<", "<=", ">", ">="}) {
    auto stmt = ParseSql(std::string("SELECT a FROM t WHERE a ") + op + " 5");
    EXPECT_TRUE(stmt.ok()) << op;
  }
}

TEST(ParserTest, LikeAndNot) {
  auto stmt =
      ParseSql("SELECT a FROM t WHERE NOT city LIKE 'R%' AND a LIKE '_x'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->ToString(),
            "(not (city like 'R%') and (a like '_x'))");
}

TEST(ParserTest, StringEscapes) {
  auto expr = ParseExpression("'it''s'");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ((*expr)->literal.AsString(), "it's");
}

TEST(ParserTest, FunctionsAndGroupOrder) {
  auto stmt = ParseSql(
      "SELECT SUBSTRING(date, 0, 7) as m, sum(index) as total "
      "FROM t WHERE date LIKE '2015%' "
      "GROUP BY SUBSTRING(date, 0, 7) "
      "ORDER BY SUBSTRING(date, 0, 7) DESC, m ASC LIMIT 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_TRUE(stmt->order_by[0].descending);
  EXPECT_FALSE(stmt->order_by[1].descending);
  EXPECT_TRUE(stmt->HasAggregates());
}

TEST(ParserTest, CountStar) {
  auto stmt = ParseSql("SELECT count(*) FROM t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->items[0].expr->args.size(), 1u);
  EXPECT_EQ(stmt->items[0].expr->args[0]->kind, Expr::Kind::kStar);
}

TEST(ParserTest, NumericLiterals) {
  auto a = ParseExpression("42");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->literal.AsInt64(), 42);
  auto b = ParseExpression("4.25");
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ((*b)->literal.AsDoubleExact(), 4.25);
  // A minus before a number is the literal's sign, so INT64_MIN parses;
  // before anything else it negates.
  auto c = ParseExpression("-7");
  ASSERT_TRUE(c.ok());
  ASSERT_EQ((*c)->kind, Expr::Kind::kLiteral);
  EXPECT_EQ((*c)->literal.AsInt64(), -7);
  auto d = ParseExpression("-9223372036854775808");
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ((*d)->literal.AsInt64(), std::numeric_limits<int64_t>::min());
  auto e = ParseExpression("-0.5");
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ((*e)->literal.AsDoubleExact(), -0.5);
  EXPECT_FALSE(ParseExpression("-9223372036854775809").ok());
  auto f = ParseExpression("-vid");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind, Expr::Kind::kUnary);
  auto g = ParseExpression("3 - -2");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ((*g)->ToString(), "(3 - -2)");
}

TEST(ParserTest, NullLiteral) {
  auto expr = ParseExpression("NULL");
  ASSERT_TRUE(expr.ok());
  EXPECT_TRUE((*expr)->literal.is_null());
}

struct BadSql {
  const char* sql;
};
class ParserErrorTest : public ::testing::TestWithParam<BadSql> {};

TEST_P(ParserErrorTest, Rejects) {
  EXPECT_FALSE(ParseSql(GetParam().sql).ok()) << GetParam().sql;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(BadSql{"SELECT"}, BadSql{"SELECT a"},
                      BadSql{"SELECT a FROM"}, BadSql{"SELECT FROM t"},
                      BadSql{"SELECT a FROM t WHERE"},
                      BadSql{"SELECT a FROM t GROUP a"},
                      BadSql{"SELECT a FROM t LIMIT x"},
                      BadSql{"SELECT f(a FROM t"},
                      BadSql{"SELECT a FROM t trailing junk +"},
                      BadSql{"SELECT 'unterminated FROM t"}));

TEST(ParserTest, CloneAndToStringStable) {
  auto stmt = ParseSql(
      "SELECT vid, sum(index) as max FROM largeMeter "
      "WHERE date LIKE '2015-01%' GROUP BY vid ORDER BY vid");
  ASSERT_TRUE(stmt.ok());
  auto clone = stmt->where->Clone();
  EXPECT_EQ(clone->ToString(), stmt->where->ToString());
}

TEST(ParserTest, AllGridPocketQueriesParse) {
  for (const GridPocketQuery& query : GridPocketQueries()) {
    auto stmt = ParseSql(query.sql);
    ASSERT_TRUE(stmt.ok()) << query.name << ": " << stmt.status();
    EXPECT_EQ(stmt->table, "largeMeter") << query.name;
    EXPECT_TRUE(stmt->HasAggregates()) << query.name;
    EXPECT_NE(stmt->where, nullptr) << query.name;
  }
}


TEST(ParserTest, InListDesugarsToOr) {
  auto stmt = ParseSql("SELECT a FROM t WHERE city IN ('x', 'y', 'z')");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->where->ToString(),
            "(((city = 'x') or (city = 'y')) or (city = 'z'))");
  auto negated = ParseSql("SELECT a FROM t WHERE city NOT IN ('x')");
  ASSERT_TRUE(negated.ok());
  EXPECT_EQ(negated->where->ToString(), "not (city = 'x')");
}

TEST(ParserTest, BetweenDesugarsToRange) {
  auto stmt = ParseSql("SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b = 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->where->ToString(),
            "(((a >= 1) and (a <= 5)) and (b = 2))");
  auto negated = ParseSql("SELECT a FROM t WHERE a NOT BETWEEN 1 AND 5");
  ASSERT_TRUE(negated.ok());
  EXPECT_EQ(negated->where->ToString(), "not ((a >= 1) and (a <= 5))");
}

TEST(ParserTest, IsNullForms) {
  auto stmt = ParseSql("SELECT a FROM t WHERE a IS NULL OR b IS NOT NULL");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->where->ToString(),
            "(is_null(a) or is_not_null(b))");
}

TEST(ParserTest, HavingClause) {
  auto stmt = ParseSql(
      "SELECT city, count(*) FROM t GROUP BY city "
      "HAVING count(*) > 2 ORDER BY city");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_NE(stmt->having, nullptr);
  EXPECT_EQ(stmt->having->ToString(), "(count(*) > 2)");
  EXPECT_TRUE(stmt->HasAggregates());
}

TEST(ParserTest, PostfixPredicateErrors) {
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE a IN ()").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE a IN 'x'").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE a BETWEEN 1").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE a IS 5").ok());
}

}  // namespace
}  // namespace scoop
