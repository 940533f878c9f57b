#include <gtest/gtest.h>

#include "columnar/record_batch.h"
#include "common/random.h"
#include "csv/batch_reader.h"
#include "sql/catalyst.h"
#include "sql/expr_eval.h"
#include "sql/parser.h"
#include "sql/source_filter.h"

namespace scoop {
namespace {

Schema TestSchema() {
  return Schema({{"vid", ColumnType::kInt64},
                 {"city", ColumnType::kString},
                 {"load", ColumnType::kDouble},
                 {"date", ColumnType::kString}});
}

// Evaluates `filter` on one record of raw fields through MatchRows, as
// the storlets run it.
bool MatchesOne(const SourceFilter& filter,
                const std::vector<std::string_view>& fields,
                const Schema& schema) {
  std::vector<uint32_t> selected = {0};
  filter.MatchRows(RawFieldCells{fields.data(), fields.size()}, schema,
                   &selected);
  return !selected.empty();
}

// The same kernel over a typed row's column vectors, as
// PhysicalPlan::ProcessBatch runs it.
bool MatchesTyped(const SourceFilter& filter, const Row& row,
                  const Schema& schema) {
  RecordBatch batch = RecordBatch::FromRows(schema, {row});
  std::vector<uint32_t> selected = {0};
  filter.MatchRows(BatchCells{batch}, schema, &selected);
  return !selected.empty();
}

TEST(SourceFilterTest, SerializeParseRoundtripBasics) {
  SourceFilter like = SourceFilter::Like("date", "2015-01%");
  EXPECT_EQ(like.Serialize(), "(like date \"2015-01%\")");
  auto parsed = SourceFilter::Parse(like.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, like);

  SourceFilter cmp = SourceFilter::Compare(SourceFilter::Op::kGe, "load",
                                           Value(12.5));
  auto parsed_cmp = SourceFilter::Parse(cmp.Serialize());
  ASSERT_TRUE(parsed_cmp.ok());
  EXPECT_EQ(*parsed_cmp, cmp);

  EXPECT_EQ(SourceFilter::True().Serialize(), "(true)");
  auto parsed_true = SourceFilter::Parse("(true)");
  ASSERT_TRUE(parsed_true.ok());
  EXPECT_TRUE(parsed_true->IsTrue());
}

TEST(SourceFilterTest, EscapingInLiterals) {
  SourceFilter filter =
      SourceFilter::Like("city", "quote\"and\\slash%");
  auto parsed = SourceFilter::Parse(filter.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->literal, "quote\"and\\slash%");
}

TEST(SourceFilterTest, ParseRejectsGarbage) {
  EXPECT_FALSE(SourceFilter::Parse("").ok());
  EXPECT_FALSE(SourceFilter::Parse("(unknownop a 1)").ok());
  EXPECT_FALSE(SourceFilter::Parse("(eq a)").ok());
  EXPECT_FALSE(SourceFilter::Parse("(and)").ok());
  EXPECT_FALSE(SourceFilter::Parse("(eq a 1) trailing").ok());
  EXPECT_FALSE(SourceFilter::Parse("(like a \"unterminated)").ok());
}

TEST(SourceFilterTest, ParseBoundsNesting) {
  // `depth` parentheses deep: (not (not ... (eq vid 1))).
  auto nested = [](int depth) {
    std::string text;
    for (int i = 1; i < depth; ++i) text += "(not ";
    text += "(eq vid 1)";
    text.append(static_cast<size_t>(depth - 1), ')');
    return text;
  };
  const std::string at_limit = nested(SourceFilter::kMaxParseDepth);
  auto parsed = SourceFilter::Parse(at_limit);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Serialize(), at_limit);
  auto deeper = SourceFilter::Parse(nested(SourceFilter::kMaxParseDepth + 1));
  ASSERT_FALSE(deeper.ok());
  EXPECT_TRUE(deeper.status().IsInvalidArgument()) << deeper.status();
}

TEST(SourceFilterTest, MatchesSemantics) {
  Schema schema = TestSchema();
  std::vector<std::string_view> row = {"7", "Rotterdam", "20.5",
                                       "2015-01-15 10:00:00"};
  auto match = [&](const std::string& text) {
    auto filter = SourceFilter::Parse(text);
    EXPECT_TRUE(filter.ok()) << text;
    return MatchesOne(*filter, row, schema);
  };
  EXPECT_TRUE(match("(true)"));
  EXPECT_TRUE(match("(like date \"2015-01%\")"));
  EXPECT_FALSE(match("(like date \"2015-02%\")"));
  EXPECT_TRUE(match("(eq city \"Rotterdam\")"));
  EXPECT_TRUE(match("(gt load 20)"));
  EXPECT_FALSE(match("(gt load 21)"));
  EXPECT_TRUE(match("(le vid 7)"));
  EXPECT_TRUE(match("(and (like city \"R%\") (ge vid 5))"));
  EXPECT_FALSE(match("(and (like city \"R%\") (ge vid 50))"));
  EXPECT_TRUE(match("(or (eq city \"Paris\") (eq city \"Rotterdam\"))"));
  EXPECT_TRUE(match("(not (eq city \"Paris\"))"));
  EXPECT_TRUE(match("(notnull city)"));
  EXPECT_FALSE(match("(isnull city)"));
  // Unknown column never matches.
  EXPECT_FALSE(match("(eq ghost \"x\")"));
}

TEST(SourceFilterTest, NullFieldSemantics) {
  Schema schema = TestSchema();
  std::vector<std::string_view> row = {"", "", "", ""};
  auto filter = SourceFilter::Parse("(eq vid 0)");
  ASSERT_TRUE(filter.ok());
  EXPECT_FALSE(MatchesOne(*filter, row, schema));
  auto isnull = SourceFilter::Parse("(isnull vid)");
  EXPECT_TRUE(MatchesOne(*isnull, row, schema));
}

TEST(SourceFilterTest, SelectivityEstimatesAreProbabilities) {
  for (const char* text :
       {"(true)", "(eq a 1)", "(like d \"2015%\")",
        "(and (eq a 1) (gt b 2))", "(or (eq a 1) (eq a 2))",
        "(not (like c \"x%\"))", "(isnull a)", "(notnull a)"}) {
    auto filter = SourceFilter::Parse(text);
    ASSERT_TRUE(filter.ok()) << text;
    double p = filter->EstimateSelectivity();
    EXPECT_GE(p, 0.0) << text;
    EXPECT_LE(p, 1.0) << text;
  }
  auto longer = SourceFilter::Parse("(like d \"2015-01-02%\")");
  auto shorter = SourceFilter::Parse("(like d \"2%\")");
  EXPECT_LT(longer->EstimateSelectivity(), shorter->EstimateSelectivity());
}

TEST(CatalystTest, SplitsConjuncts) {
  auto expr = ParseExpression("a = 1 AND b = 2 AND (c = 3 OR d = 4)");
  ASSERT_TRUE(expr.ok());
  std::vector<std::unique_ptr<Expr>> conjuncts;
  SplitConjuncts(**expr, &conjuncts);
  ASSERT_EQ(conjuncts.size(), 3u);
  EXPECT_EQ(conjuncts[2]->ToString(), "((c = 3) or (d = 4))");
}

TEST(CatalystTest, ConvertsPushableShapes) {
  Schema schema = TestSchema();
  auto convert = [&](const std::string& text) -> std::string {
    auto expr = ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << text;
    SourceFilter filter;
    if (!TryConvertToSourceFilter(**expr, schema, &filter)) return "<no>";
    return filter.Serialize();
  };
  EXPECT_EQ(convert("city = 'Paris'"), "(eq city \"Paris\")");
  EXPECT_EQ(convert("vid > 5"), "(gt vid 5)");
  EXPECT_EQ(convert("5 < vid"), "(gt vid 5)");     // operand flip
  EXPECT_EQ(convert("5 = vid"), "(eq vid 5)");
  EXPECT_EQ(convert("date LIKE '2015%'"), "(like date \"2015%\")");
  EXPECT_EQ(convert("NOT city = 'x'"), "(not (eq city \"x\"))");
  EXPECT_EQ(convert("city = 'a' OR city = 'b'"),
            "(or (eq city \"a\") (eq city \"b\"))");
  EXPECT_EQ(convert("load <= 1.5"), "(le load 1.5)");
  // Negated literals push like any other.
  EXPECT_EQ(convert("vid > -1"), "(gt vid -1)");
  EXPECT_EQ(convert("-1 < vid"), "(gt vid -1)");
  EXPECT_EQ(convert("vid >= -9223372036854775808"),
            "(ge vid -9223372036854775808)");
  EXPECT_EQ(convert("load > -2.5"), "(gt load -2.5)");
  EXPECT_EQ(convert("load >= -0.0"), "(ge load -0.0)");
  EXPECT_EQ(convert("load < -3.0"), "(lt load -3.0)");
}

TEST(CatalystTest, LeavesUnpushableShapesResidual) {
  Schema schema = TestSchema();
  auto rejected = [&](const std::string& text) {
    auto expr = ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << text;
    SourceFilter filter;
    return !TryConvertToSourceFilter(**expr, schema, &filter);
  };
  EXPECT_TRUE(rejected("load / 2 > 5"));           // expression operand
  EXPECT_TRUE(rejected("vid = load"));             // column vs column
  EXPECT_TRUE(rejected("vid LIKE '1%'"));          // LIKE on numeric column
  EXPECT_TRUE(rejected("city > 5"));               // type mismatch
  EXPECT_TRUE(rejected("vid = 'five'"));           // type mismatch
  EXPECT_TRUE(rejected("city = null"));            // null literal
  EXPECT_TRUE(rejected("ghost = 1"));              // unknown column
  EXPECT_TRUE(rejected("vid = 1 OR load / 2 > 1"));  // partial OR
  EXPECT_TRUE(rejected("-vid > 1"));               // negated column
}

TEST(CatalystTest, ExtractionSplitsWhere) {
  Schema schema = TestSchema();
  auto stmt = ParseSql(
      "SELECT vid FROM t WHERE city LIKE 'R%' AND load / 2 > 5 AND vid <= 10");
  ASSERT_TRUE(stmt.ok());
  auto extraction = ExtractPushdown(*stmt, schema);
  ASSERT_TRUE(extraction.ok());
  EXPECT_EQ(extraction->pushed_filter.Serialize(),
            "(and (like city \"R%\") (le vid 10))");
  ASSERT_EQ(extraction->residual_conjuncts.size(), 1u);
  EXPECT_EQ(extraction->residual_conjuncts[0]->ToString(),
            "((load / 2) > 5)");
  EXPECT_EQ(extraction->all_conjuncts.size(), 3u);
}

TEST(CatalystTest, RequiredColumnsInSchemaOrder) {
  Schema schema = TestSchema();
  auto stmt = ParseSql(
      "SELECT sum(load) FROM t WHERE date LIKE '2015%' GROUP BY city "
      "ORDER BY city");
  ASSERT_TRUE(stmt.ok());
  auto extraction = ExtractPushdown(*stmt, schema);
  ASSERT_TRUE(extraction.ok());
  // city, load, date referenced; vid not. Order follows the table schema.
  std::vector<std::string> expected = {"city", "load", "date"};
  EXPECT_EQ(extraction->required_columns, expected);
}

TEST(CatalystTest, SelectStarRequiresEverything) {
  Schema schema = TestSchema();
  auto stmt = ParseSql("SELECT * FROM t WHERE vid = 1");
  ASSERT_TRUE(stmt.ok());
  auto extraction = ExtractPushdown(*stmt, schema);
  ASSERT_TRUE(extraction.ok());
  EXPECT_EQ(extraction->required_columns.size(), schema.size());
}

TEST(CatalystTest, UnknownColumnFailsExtraction) {
  Schema schema = TestSchema();
  auto stmt = ParseSql("SELECT ghost FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(ExtractPushdown(*stmt, schema).ok());
}


TEST(CatalystTest, PushesDesugaredPostfixForms) {
  Schema schema = TestSchema();
  auto check = [&](const std::string& sql, const std::string& expected) {
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto extraction = ExtractPushdown(*stmt, schema);
    ASSERT_TRUE(extraction.ok()) << sql;
    EXPECT_EQ(extraction->pushed_filter.Serialize(), expected) << sql;
    EXPECT_TRUE(extraction->residual_conjuncts.empty()) << sql;
  };
  check("SELECT vid FROM t WHERE vid BETWEEN 2 AND 8",
        "(and (ge vid 2) (le vid 8))");
  check("SELECT vid FROM t WHERE vid BETWEEN -10 AND 3068",
        "(and (ge vid -10) (le vid 3068))");
  check("SELECT vid FROM t WHERE city IN ('Paris', 'Nice')",
        "(or (eq city \"Paris\") (eq city \"Nice\"))");
  check("SELECT vid FROM t WHERE city IS NOT NULL", "(notnull city)");
  check("SELECT vid FROM t WHERE city IS NULL", "(isnull city)");
  // On a numeric column too: the store types a raw field the way the
  // scan does, so an empty or unparseable field is null on both sides.
  check("SELECT vid FROM t WHERE vid IS NULL", "(isnull vid)");
  check("SELECT vid FROM t WHERE vid IS NOT NULL", "(notnull vid)");
  check("SELECT vid FROM t WHERE load IS NOT NULL", "(notnull load)");
}

// Property: the pushed-filter kernel over both of its readers (raw CSV
// fields, the storlets'; typed column vectors, ProcessBatch's) and
// compute-side EvalPredicate over the typed row agree on every pushable
// predicate the generator produces. Fields and literals cover the
// corners where typing matters: int64 min/max, integers past 2^53
// against integral and double literals, NaN and -0.0, negated literals
// and unparseable numbers. A typed batch can also hold a non-null empty
// string, which raw fields cannot; the typed side alone is checked
// against EvalPredicate on it.
TEST(FilterConsistencyProperty, StoreAndComputeAgree) {
  Rng rng(99);
  Schema schema = TestSchema();
  const char* cities[] = {"Paris", "Rotterdam", "Nice", ""};
  const std::vector<std::string> vids = {
      "-9223372036854775808", "9223372036854775807", "9007199254740993", "7x",
  };
  const std::vector<std::string> loads = {
      "NaN", "-0.0", "9007199254740993", "1e308",
  };
  const std::vector<std::string> corner_predicates = {
      // Integers past 2^53, against integer and double literals.
      "vid > 9007199254740992", "vid = 9007199254740993",
      "vid > 9007199254740992.0", "vid <= 9007199254740992.0",
      // INT64_MIN and INT64_MAX, and a range from a negated literal.
      "vid >= -9223372036854775808", "vid = -9223372036854775808",
      "vid < 9223372036854775807", "vid <> 9223372036854775807",
      "vid BETWEEN -10 AND 5",
      // Against NaN, -0.0 and a double past 2^53.
      "load = 0", "load >= -0.0", "load <> 0", "load < 9007199254740993",
      "load > -2.5",
      // Null and empty strings.
      "city IS NULL", "city IS NOT NULL", "city = ''", "city < 'P'",
      "city LIKE '%'",
      // Null tests on numeric columns: an empty or unparseable field
      // ("7x") is null on both sides.
      "vid IS NULL", "vid IS NOT NULL", "load IS NULL", "load IS NOT NULL",
  };
  auto leaf = [&]() -> std::string {
    switch (rng.NextBounded(8)) {
      case 0:
        return "vid >= " + std::to_string(rng.NextInt(-3, 20));
      case 1:
        return "load < " + std::to_string(rng.NextInt(-3, 50));
      case 2:
        return std::string("city = '") + cities[rng.NextIndex(3)] + "'";
      case 3:
        return "date LIKE '2015-0" + std::to_string(rng.NextInt(1, 9)) + "%'";
      case 4:
        return "NOT vid = " + std::to_string(rng.NextInt(0, 20));
      case 5:
        return "vid > -" + std::to_string(rng.NextInt(0, 3));
      default:
        return corner_predicates[rng.NextIndex(corner_predicates.size())];
    }
  };
  for (int iter = 0; iter < 2000; ++iter) {
    // Random row (as raw CSV fields).
    std::string vid = std::to_string(rng.NextInt(-3, 20));
    std::string city = cities[rng.NextIndex(4)];
    std::string load = std::to_string(rng.NextInt(-3, 50)) + ".5";
    if (rng.NextBool(0.4)) vid = vids[rng.NextIndex(vids.size())];
    if (rng.NextBool(0.4)) load = loads[rng.NextIndex(loads.size())];
    if (rng.NextBool(0.1)) vid.clear();
    if (rng.NextBool(0.1)) load.clear();
    std::string date = "2015-0" + std::to_string(rng.NextInt(1, 9)) + "-11";
    std::vector<std::string_view> fields = {vid, city, load, date};

    // Random pushable predicate: a leaf, or two joined.
    std::string text = leaf();
    switch (rng.NextBounded(4)) {
      case 0:
        text = "(" + text + ") AND (" + leaf() + ")";
        break;
      case 1:
        text = "(" + text + ") OR (" + leaf() + ")";
        break;
      case 2:
        text = "NOT (" + text + ")";
        break;
      default:
        break;
    }
    auto expr = ParseExpression(text);
    ASSERT_TRUE(expr.ok()) << text;
    SourceFilter filter;
    ASSERT_TRUE(TryConvertToSourceFilter(**expr, schema, &filter)) << text;
    ASSERT_TRUE(BindExpr(expr->get(), schema).ok());

    Row typed;
    for (size_t i = 0; i < fields.size(); ++i) {
      typed.push_back(Value::FromField(fields[i], schema.column(i).type));
    }
    const bool compute_side = EvalPredicate(**expr, typed);
    const std::string where = "predicate=" + text + " row=[" + vid + "," +
                              city + "," + load + "," + date + "]";
    EXPECT_EQ(MatchesOne(filter, fields, schema), compute_side) << where;
    EXPECT_EQ(MatchesTyped(filter, typed, schema), compute_side) << where;

    if (city.empty()) {
      typed[1] = Value(std::string());
      EXPECT_EQ(MatchesTyped(filter, typed, schema),
                EvalPredicate(**expr, typed))
          << where << " (city a non-null empty string)";
    }
  }
}

// Property: random filter trees survive a serialize/parse roundtrip.
TEST(FilterRoundtripProperty, RandomTreesRoundtrip) {
  Rng rng(7);
  std::function<SourceFilter(int)> make = [&](int depth) -> SourceFilter {
    if (depth == 0 || rng.NextBool(0.5)) {
      switch (rng.NextBounded(4)) {
        case 0:
          return SourceFilter::Compare(SourceFilter::Op::kLt, "c",
                                       Value(rng.NextInt(-100, 100)));
        case 1:
          return SourceFilter::Like("c", "pre%fix_" +
                                             std::to_string(rng.Next() % 10));
        case 2:
          return SourceFilter::IsNull("c", rng.NextBool(0.5));
        default:
          return SourceFilter::Compare(
              SourceFilter::Op::kEq, "c",
              Value("lit \"quoted\" \\ " + std::to_string(rng.Next() % 10)));
      }
    }
    std::vector<SourceFilter> children;
    size_t n = 2 + rng.NextBounded(2);
    for (size_t i = 0; i < n; ++i) children.push_back(make(depth - 1));
    switch (rng.NextBounded(3)) {
      case 0:
        return SourceFilter::And(std::move(children));
      case 1:
        return SourceFilter::Or(std::move(children));
      default:
        return SourceFilter::Not(make(depth - 1));
    }
  };
  for (int iter = 0; iter < 100; ++iter) {
    SourceFilter filter = make(3);
    auto parsed = SourceFilter::Parse(filter.Serialize());
    ASSERT_TRUE(parsed.ok()) << filter.Serialize();
    EXPECT_EQ(*parsed, filter) << filter.Serialize();
  }
}

}  // namespace
}  // namespace scoop
