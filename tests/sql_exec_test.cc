#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "csv/batch_reader.h"
#include "sql/executor.h"
#include "sql/expr_eval.h"
#include "sql/parser.h"

namespace scoop {
namespace {

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"city", ColumnType::kString},
                 {"load", ColumnType::kDouble},
                 {"date", ColumnType::kString}});
}

std::vector<Row> TestRows() {
  std::vector<Row> rows;
  auto add = [&](int64_t id, const char* city, double load,
                 const char* date) {
    Row row;
    row.push_back(Value(id));
    row.push_back(Value(std::string(city)));
    row.push_back(Value(load));
    row.push_back(Value(std::string(date)));
    rows.push_back(std::move(row));
  };
  add(1, "Paris", 10.0, "2015-01-01");
  add(2, "Rotterdam", 20.0, "2015-01-02");
  add(3, "Rotterdam", 30.0, "2015-02-01");
  add(4, "Nice", 40.0, "2015-01-03");
  add(5, "Paris", 50.0, "2015-02-02");
  return rows;
}

Result<ResultTable> ExecSql(const std::string& sql) {
  return ExecuteSqlOverRows(sql, TestSchema(), TestRows());
}

TEST(ExprEvalTest, BindRejectsUnknownColumn) {
  auto expr = ParseExpression("ghost + 1");
  ASSERT_TRUE(expr.ok());
  Schema schema = TestSchema();
  EXPECT_FALSE(BindExpr(expr->get(), schema).ok());
}

TEST(ExprEvalTest, ArithmeticSemantics) {
  Schema schema = TestSchema();
  Row row = TestRows()[0];
  auto eval = [&](const std::string& text) {
    auto expr = ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << text;
    EXPECT_TRUE(BindExpr(expr->get(), schema).ok()) << text;
    return EvalExpr(**expr, row);
  };
  EXPECT_EQ(eval("1 + 2").AsInt64(), 3);
  EXPECT_DOUBLE_EQ(eval("load * 2").AsDoubleExact(), 20.0);
  EXPECT_DOUBLE_EQ(eval("7 / 2").AsDoubleExact(), 3.5);
  EXPECT_TRUE(eval("1 / 0").is_null());
  EXPECT_EQ(eval("-id").AsInt64(), -1);
  EXPECT_TRUE(eval("null + 1").is_null());
}

TEST(ExprEvalTest, ComparisonAndLogic) {
  Schema schema = TestSchema();
  Row row = TestRows()[1];  // Rotterdam, 20.0
  auto truthy = [&](const std::string& text) {
    auto expr = ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << text;
    EXPECT_TRUE(BindExpr(expr->get(), schema).ok()) << text;
    return EvalPredicate(**expr, row);
  };
  EXPECT_TRUE(truthy("city = 'Rotterdam'"));
  EXPECT_FALSE(truthy("city = 'Paris'"));
  EXPECT_TRUE(truthy("load >= 20"));
  EXPECT_TRUE(truthy("load > 10 AND city LIKE 'R%'"));
  EXPECT_TRUE(truthy("load > 100 OR id = 2"));
  EXPECT_FALSE(truthy("NOT id = 2"));
  // Null comparison is false; NOT of it is true (documented semantics).
  EXPECT_FALSE(truthy("city = null"));
  EXPECT_TRUE(truthy("NOT city = null"));
}

TEST(ExprEvalTest, SubstringSemantics) {
  EXPECT_EQ(SqlSubstring("2015-01-15", 0, 7), "2015-01");
  EXPECT_EQ(SqlSubstring("2015-01-15", 1, 7), "2015-01");
  EXPECT_EQ(SqlSubstring("2015-01-15", 6, 2), "01");
  EXPECT_EQ(SqlSubstring("abc", 10, 2), "");
  EXPECT_EQ(SqlSubstring("abc", 1, 100), "abc");
  EXPECT_EQ(SqlSubstring("abcdef", -3, 2), "de");
  EXPECT_EQ(SqlSubstring("abc", 1, 0), "");
}

TEST(ExecutorTest, SimpleProjection) {
  auto result = ExecSql("SELECT city, load FROM t WHERE load > 15");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->schema.column(0).name, "city");
  EXPECT_EQ(result->rows[0][0].AsString(), "Rotterdam");
}

TEST(ExecutorTest, SelectStarPreservesSchema) {
  auto result = ExecSql("SELECT * FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema.size(), 4u);
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_EQ(result->schema.column(1).name, "city");
}

TEST(ExecutorTest, OrderByAndLimit) {
  auto result = ExecSql("SELECT id FROM t ORDER BY load DESC LIMIT 2");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].AsInt64(), 5);
  EXPECT_EQ(result->rows[1][0].AsInt64(), 4);
}

TEST(ExecutorTest, OrderByColumnNotSelected) {
  auto result = ExecSql("SELECT city FROM t ORDER BY id DESC LIMIT 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsString(), "Paris");  // id 5
  EXPECT_EQ(result->schema.size(), 1u);  // hidden sort key not exposed
}

TEST(ExecutorTest, OrderByAlias) {
  auto result = ExecSql("SELECT load * 2 AS dbl FROM t ORDER BY dbl DESC LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->rows[0][0].AsDoubleExact(), 100.0);
}

TEST(ExecutorTest, GroupByWithAggregates) {
  auto result = ExecSql(
      "SELECT city, sum(load) AS total, count(*) AS n FROM t "
      "GROUP BY city ORDER BY city");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0].AsString(), "Nice");
  EXPECT_DOUBLE_EQ(result->rows[0][1].ToDouble(), 40.0);
  EXPECT_EQ(result->rows[0][2].AsInt64(), 1);
  EXPECT_EQ(result->rows[2][0].AsString(), "Rotterdam");
  EXPECT_DOUBLE_EQ(result->rows[2][1].ToDouble(), 50.0);
  EXPECT_EQ(result->rows[2][2].AsInt64(), 2);
}

TEST(ExecutorTest, GroupByExpression) {
  auto result = ExecSql(
      "SELECT SUBSTRING(date, 0, 7) AS month, sum(load) AS total FROM t "
      "GROUP BY SUBSTRING(date, 0, 7) ORDER BY SUBSTRING(date, 0, 7)");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].AsString(), "2015-01");
  EXPECT_DOUBLE_EQ(result->rows[0][1].ToDouble(), 70.0);
  EXPECT_EQ(result->rows[1][0].AsString(), "2015-02");
  EXPECT_DOUBLE_EQ(result->rows[1][1].ToDouble(), 80.0);
}

TEST(ExecutorTest, OrderByHiddenGroupKey) {
  // ORDER BY on a group key that is not selected (ShowMapHeatmonth shape).
  auto result = ExecSql(
      "SELECT sum(load) AS total FROM t "
      "GROUP BY city ORDER BY city DESC");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_DOUBLE_EQ(result->rows[0][0].ToDouble(), 50.0);  // Rotterdam
  EXPECT_DOUBLE_EQ(result->rows[2][0].ToDouble(), 40.0);  // Nice
}

TEST(ExecutorTest, MinMaxAvgFirstValue) {
  auto result = ExecSql(
      "SELECT city, min(load) AS lo, max(load) AS hi, avg(load) AS mean, "
      "first_value(id) AS first FROM t GROUP BY city ORDER BY city");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 3u);
  // Paris: loads 10, 50; first row id 1.
  EXPECT_DOUBLE_EQ(result->rows[1][1].ToDouble(), 10.0);
  EXPECT_DOUBLE_EQ(result->rows[1][2].ToDouble(), 50.0);
  EXPECT_DOUBLE_EQ(result->rows[1][3].AsDoubleExact(), 30.0);
  EXPECT_EQ(result->rows[1][4].AsInt64(), 1);
}

TEST(ExecutorTest, GlobalAggregateWithoutGroupBy) {
  auto result = ExecSql("SELECT count(*) AS n, sum(load) AS total FROM t");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt64(), 5);
  EXPECT_DOUBLE_EQ(result->rows[0][1].ToDouble(), 150.0);
}

TEST(ExecutorTest, GlobalAggregateOverZeroRows) {
  auto result = ExecSql("SELECT count(*) AS n, sum(load) AS s FROM t WHERE id > 99");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt64(), 0);
  EXPECT_TRUE(result->rows[0][1].is_null());
}

TEST(ExecutorTest, ExpressionOverAggregates) {
  auto result = ExecSql(
      "SELECT city, sum(load) / count(*) AS mean FROM t GROUP BY city "
      "ORDER BY city");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->rows[1][1].AsDoubleExact(), 30.0);  // Paris
}

TEST(ExecutorTest, NonGroupedColumnRejected) {
  auto result = ExecSql("SELECT city, sum(load) FROM t GROUP BY id");
  EXPECT_FALSE(result.ok());
}

TEST(ExecutorTest, UnknownColumnRejected) {
  EXPECT_FALSE(ExecSql("SELECT ghost FROM t").ok());
  EXPECT_FALSE(ExecSql("SELECT id FROM t WHERE ghost = 1").ok());
}

TEST(ExecutorTest, IntegerSumStaysExact) {
  auto result = ExecSql("SELECT sum(id) AS s FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].type(), ValueType::kInt64);
  EXPECT_EQ(result->rows[0][0].AsInt64(), 15);
}

TEST(ExecutorTest, ResultRenderings) {
  auto result = ExecSql("SELECT id, city FROM t ORDER BY id LIMIT 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToCsv(), "1,Paris\n2,Rotterdam\n");
  std::string display = result->ToDisplayString();
  EXPECT_NE(display.find("city"), std::string::npos);
  EXPECT_NE(display.find("Rotterdam"), std::string::npos);
}


TEST(ExecutorTest, InAndBetweenPredicates) {
  auto result = ExecSql(
      "SELECT id FROM t WHERE city IN ('Paris', 'Nice') "
      "AND load BETWEEN 10 AND 40 ORDER BY id");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].AsInt64(), 1);
  EXPECT_EQ(result->rows[1][0].AsInt64(), 4);
}

TEST(ExecutorTest, IsNullPredicates) {
  Schema schema({{"id", ColumnType::kInt64}, {"tag", ColumnType::kString}});
  std::vector<Row> rows;
  rows.push_back({Value(static_cast<int64_t>(1)), Value(std::string("x"))});
  rows.push_back({Value(static_cast<int64_t>(2)), Value::Null()});
  rows.push_back({Value(static_cast<int64_t>(3)), Value(std::string("y"))});
  auto null_rows = ExecuteSqlOverRows(
      "SELECT id FROM t WHERE tag IS NULL", schema, rows);
  ASSERT_TRUE(null_rows.ok()) << null_rows.status();
  ASSERT_EQ(null_rows->rows.size(), 1u);
  EXPECT_EQ(null_rows->rows[0][0].AsInt64(), 2);
  auto not_null = ExecuteSqlOverRows(
      "SELECT id FROM t WHERE tag IS NOT NULL ORDER BY id", schema, rows);
  ASSERT_TRUE(not_null.ok());
  EXPECT_EQ(not_null->rows.size(), 2u);
}

TEST(ExecutorTest, HavingFiltersGroups) {
  auto result = ExecSql(
      "SELECT city, count(*) AS n FROM t GROUP BY city "
      "HAVING count(*) > 1 ORDER BY city");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);  // Paris and Rotterdam, not Nice
  EXPECT_EQ(result->rows[0][0].AsString(), "Paris");
  EXPECT_EQ(result->rows[1][0].AsString(), "Rotterdam");
}

TEST(ExecutorTest, HavingOnAggregateNotInSelect) {
  auto result = ExecSql(
      "SELECT city FROM t GROUP BY city HAVING sum(load) >= 50 "
      "ORDER BY city");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].AsString(), "Paris");      // 60
  EXPECT_EQ(result->rows[1][0].AsString(), "Rotterdam");  // 50
  EXPECT_EQ(result->schema.size(), 1u);
}

TEST(ExecutorTest, HavingReferencingNonGroupedColumnFails) {
  EXPECT_FALSE(
      ExecSql("SELECT city FROM t GROUP BY city HAVING id > 1").ok());
}


TEST(ExecutorTest, ExplainDescribesThePlan) {
  auto stmt = ParseSql(
      "SELECT city, sum(load) AS total FROM t "
      "WHERE city LIKE 'R%' AND load / 2 > 1 GROUP BY city "
      "HAVING sum(load) > 10 ORDER BY city DESC LIMIT 3");
  ASSERT_TRUE(stmt.ok());
  auto plan = PhysicalPlan::Create(*stmt, TestSchema());
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::string text = (*plan)->Explain();
  EXPECT_NE(text.find("Scan [city, load]"), std::string::npos) << text;
  EXPECT_NE(text.find("pushed filter:   (like city \"R%\")"),
            std::string::npos) << text;
  EXPECT_NE(text.find("residual filter: ((load / 2) > 1)"),
            std::string::npos) << text;
  EXPECT_NE(text.find("group by [city]"), std::string::npos) << text;
  EXPECT_NE(text.find("having: (#agg0 > 10)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("Sort [#key0 desc]"), std::string::npos) << text;
  EXPECT_NE(text.find("Limit 3"), std::string::npos) << text;
}

// Distributed-equivalence property: splitting the input arbitrarily into
// partitions, processing each separately, and merging partials in order
// must equal single-pass execution.
class PartitionEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionEquivalenceTest, MergeMatchesLocal) {
  auto [num_partitions, query_index] = GetParam();
  static const char* kQueries[] = {
      "SELECT city, sum(load) AS total, count(*) AS n, first_value(id) AS f "
      "FROM t GROUP BY city ORDER BY city",
      "SELECT id, load FROM t WHERE load > 5 ORDER BY load DESC LIMIT 3",
      "SELECT SUBSTRING(date, 0, 7) AS m, min(load) AS lo, max(load) AS hi "
      "FROM t GROUP BY SUBSTRING(date, 0, 7) ORDER BY m",
      "SELECT count(*) AS n FROM t WHERE city LIKE 'R%'",
  };
  const std::string sql = kQueries[query_index];

  auto stmt = ParseSql(sql);
  ASSERT_TRUE(stmt.ok());
  Schema schema = TestSchema();
  auto plan = PhysicalPlan::Create(*stmt, schema);
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Project the table rows to the scan schema.
  std::vector<int> indices;
  for (const std::string& name : (*plan)->required_columns()) {
    indices.push_back(schema.IndexOf(name));
  }
  std::vector<Row> scan_rows;
  for (const Row& row : TestRows()) {
    Row projected;
    for (int idx : indices) projected.push_back(row[static_cast<size_t>(idx)]);
    scan_rows.push_back(std::move(projected));
  }

  auto reference = (*plan)->ExecuteLocal(scan_rows, false);
  ASSERT_TRUE(reference.ok());

  // Split round-robin-by-block into partitions, process, merge in order.
  std::vector<PartialResult> partials(static_cast<size_t>(num_partitions));
  for (size_t i = 0; i < scan_rows.size(); ++i) {
    size_t p = i * static_cast<size_t>(num_partitions) / scan_rows.size();
    (*plan)->ProcessRow(scan_rows[i], false, &partials[p]);
  }
  PartialResult merged;
  for (auto& partial : partials) {
    (*plan)->MergePartial(&merged, std::move(partial));
  }
  auto distributed = (*plan)->Finalize(std::move(merged));
  ASSERT_TRUE(distributed.ok());

  EXPECT_EQ(distributed->ToCsv(), reference->ToCsv())
      << "partitions=" << num_partitions << " sql=" << sql;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(0, 1, 2, 3)));

// Randomized property: pushdown split must be lossless — evaluating the
// pushed filter plus residual conjuncts equals evaluating the full WHERE.
TEST(ExecutorPropertyTest, PushedPlusResidualEqualsFullWhere) {
  Rng rng(2024);
  Schema schema = TestSchema();
  const char* cities[] = {"Paris", "Rotterdam", "Nice"};
  for (int iter = 0; iter < 30; ++iter) {
    // Random conjunctive WHERE over the columns.
    std::string where;
    int conjuncts = 1 + static_cast<int>(rng.NextBounded(3));
    for (int c = 0; c < conjuncts; ++c) {
      if (c > 0) where += " AND ";
      switch (rng.NextBounded(4)) {
        case 0:
          where += "load > " + std::to_string(rng.NextInt(0, 60));
          break;
        case 1:
          where += std::string("city LIKE '") +
                   cities[rng.NextIndex(3)] + "'";
          break;
        case 2:
          where += "id <= " + std::to_string(rng.NextInt(0, 6));
          break;
        default:
          // Not pushable: expression on both sides.
          where += "load / 2 > " + std::to_string(rng.NextInt(0, 30));
          break;
      }
    }
    std::string sql = "SELECT id FROM t WHERE " + where + " ORDER BY id";
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto plan = PhysicalPlan::Create(*stmt, schema);
    ASSERT_TRUE(plan.ok()) << sql;

    std::vector<int> indices;
    for (const std::string& name : (*plan)->required_columns()) {
      indices.push_back(schema.IndexOf(name));
    }
    PartialResult full, split;
    for (const Row& row : TestRows()) {
      Row projected;
      for (int idx : indices) {
        projected.push_back(row[static_cast<size_t>(idx)]);
      }
      // Full path: all conjuncts compute-side.
      (*plan)->ProcessRow(projected, false, &full);
      // Split path: pushed filter evaluated on raw fields, then residual.
      std::vector<std::string> rendered;
      std::vector<std::string_view> views;
      for (const Value& v : projected) rendered.push_back(v.ToString());
      for (const std::string& s : rendered) views.push_back(s);
      Schema scan = (*plan)->scan_schema();
      std::vector<uint32_t> selected = {0};
      (*plan)->pushed_filter().MatchRows(
          RawFieldCells{views.data(), views.size()}, scan, &selected);
      if (!selected.empty()) {
        (*plan)->ProcessRow(projected, true, &split);
      }
    }
    auto a = (*plan)->Finalize(std::move(full));
    auto b = (*plan)->Finalize(std::move(split));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->ToCsv(), b->ToCsv()) << sql;
  }
}

// Columnar-plane equivalence: ProcessBatch over a RecordBatch of the scan
// rows must produce the exact PartialResult stream ProcessRow does — same
// rows_seen/rows_passed, same finalized table — for every query shape and
// either filters_already_applied mode.
TEST(ExecutorBatchTest, ProcessBatchMatchesProcessRow) {
  static const char* kQueries[] = {
      "SELECT city, sum(load) AS total, count(*) AS n FROM t "
      "GROUP BY city ORDER BY city",
      "SELECT id, load FROM t WHERE load > 20 AND city LIKE 'R%' "
      "ORDER BY id",
      "SELECT SUBSTRING(date, 0, 7) AS m, avg(load) AS mean FROM t "
      "WHERE NOT city = 'Nice' GROUP BY SUBSTRING(date, 0, 7) ORDER BY m",
      "SELECT count(*) AS n FROM t WHERE load / 2 > 7 OR id <= 2",
      "SELECT id FROM t WHERE city IS NULL ORDER BY id",
      "SELECT id FROM t WHERE city IS NOT NULL AND NOT load > 30 ORDER BY id",
  };
  Rng rng(4711);
  Schema schema = TestSchema();
  const char* cities[] = {"Paris", "Rotterdam", "Nice", ""};
  for (const char* sql : kQueries) {
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto plan = PhysicalPlan::Create(*stmt, schema);
    ASSERT_TRUE(plan.ok()) << sql;

    // Randomized scan rows with nulls sprinkled in.
    std::vector<Row> table_rows;
    for (int r = 0; r < 200; ++r) {
      Row row;
      row.push_back(rng.NextBounded(10) == 0
                        ? Value::Null()
                        : Value(static_cast<int64_t>(rng.NextBounded(50))));
      row.push_back(rng.NextBounded(10) == 1
                        ? Value::Null()
                        : Value(std::string(cities[rng.NextIndex(4)])));
      row.push_back(rng.NextBounded(10) == 2
                        ? Value::Null()
                        : Value(static_cast<double>(rng.NextBounded(600)) / 8));
      row.push_back(Value(std::string("2015-0") +
                          std::to_string(1 + rng.NextBounded(3)) + "-15"));
      table_rows.push_back(std::move(row));
    }
    std::vector<int> indices;
    for (const std::string& name : (*plan)->required_columns()) {
      indices.push_back(schema.IndexOf(name));
    }
    std::vector<Row> scan_rows;
    for (const Row& row : table_rows) {
      Row projected;
      for (int idx : indices) {
        projected.push_back(row[static_cast<size_t>(idx)]);
      }
      scan_rows.push_back(std::move(projected));
    }

    for (bool filtered : {false, true}) {
      PartialResult row_partial;
      for (const Row& row : scan_rows) {
        (*plan)->ProcessRow(row, filtered, &row_partial);
      }
      const int64_t expect_seen = row_partial.rows_seen;
      const int64_t expect_passed = row_partial.rows_passed;
      auto reference = (*plan)->Finalize(std::move(row_partial));
      ASSERT_TRUE(reference.ok()) << sql;

      SCOPED_TRACE(std::string(sql) + " filtered=" + std::to_string(filtered));
      PartialResult batch_partial;
      // Split into uneven batches so batch edges are exercised too.
      size_t pos = 0;
      Rng chunk_rng(17);
      while (pos < scan_rows.size()) {
        size_t n = std::min<size_t>(1 + chunk_rng.NextBounded(77),
                                    scan_rows.size() - pos);
        std::vector<Row> slice(scan_rows.begin() + pos,
                               scan_rows.begin() + pos + n);
        RecordBatch batch =
            RecordBatch::FromRows((*plan)->scan_schema(), slice);
        (*plan)->ProcessBatch(batch, filtered, &batch_partial);
        pos += n;
      }
      EXPECT_EQ(batch_partial.rows_seen, expect_seen);
      EXPECT_EQ(batch_partial.rows_passed, expect_passed);
      auto result = (*plan)->Finalize(std::move(batch_partial));
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->ToCsv(), reference->ToCsv());
    }
  }
}

// The group fold (sql/group_fold.h) must equal the scalar oracle for
// every key and aggregate type: ProcessBatch folds straight from the
// column vectors when the plan's shape allows and materializes rows for
// AccumulateRow otherwise, and either way the finalized table, the
// rows_seen/rows_passed counts and the no-ORDER-BY group order equal
// ProcessRow's.
TEST(ExecutorBatchTest, GroupFoldMatchesProcessRow) {
  Schema schema({{"k", ColumnType::kInt64},
                 {"d", ColumnType::kDouble},
                 {"s", ColumnType::kString},
                 {"t", ColumnType::kString}});
  const double kNan = std::nan("");
  const Value ints[] = {Value::Null(),
                        Value(std::numeric_limits<int64_t>::min()),
                        Value(static_cast<int64_t>(-1)),
                        Value(static_cast<int64_t>(0)),
                        Value(std::numeric_limits<int64_t>::max())};
  const Value doubles[] = {Value::Null(), Value(0.0),  Value(-0.0),
                           Value(kNan),   Value(-kNan), Value(2.5),
                           Value(-1e308)};
  const Value strings[] = {Value::Null(), Value(std::string()),
                           Value(std::string("a")),
                           Value(std::string("2015-01-31 23:00")),
                           Value(std::string("b\x1f"))};
  Rng rng(2017);
  std::vector<Row> rows;
  for (int r = 0; r < 400; ++r) {
    rows.push_back({ints[rng.NextIndex(5)], doubles[rng.NextIndex(7)],
                    strings[rng.NextIndex(5)], strings[rng.NextIndex(5)]});
  }
  // No query has a residual predicate or HAVING, so agg_pushdown() is
  // set exactly when the plan compiled a group fold: it tells which path
  // ProcessBatch took.
  static const struct {
    const char* sql;
    bool folds;
  } kQueries[] = {
      // Fold shapes: bare keys of every type, substr keys, every
      // aggregate over every column type, count(*).
      {"SELECT k, d, s, sum(k), min(k), max(k), count(k), avg(k), "
       "first_value(k) FROM t GROUP BY k, d, s",
       true},
      {"SELECT d, sum(d), min(d), max(d), count(d), avg(d), first_value(d), "
       "count(*) FROM t GROUP BY d",
       true},
      {"SELECT SUBSTRING(s, 0, 1), SUBSTRING(t, 3, 2), min(s), max(t), "
       "count(s), first_value(s), first_value(t), sum(s) FROM t "
       "GROUP BY SUBSTRING(s, 0, 1), SUBSTRING(t, 3, 2)",
       true},
      {"SELECT SUBSTRING(t, 6, 100), count(*), first_value(d) FROM t "
       "WHERE k > 0 OR d > 0 GROUP BY SUBSTRING(t, 6, 100)",
       true},
      {"SELECT min(d), max(s), first_value(s), avg(d), count(*) FROM t", true},
      // Fallback shapes: computed keys and aggregate inputs.
      {"SELECT k + 1, sum(k * 2), first_value(s) FROM t GROUP BY k + 1",
       false},
      {"SELECT s, sum(d * 2), count(*) FROM t GROUP BY s", false},
      {"SELECT SUBSTRING(s, k, 2), count(*) FROM t "
       "GROUP BY SUBSTRING(s, k, 2)",
       false},
  };
  for (const auto& [sql, folds] : kQueries) {
    SCOPED_TRACE(sql);
    auto stmt = ParseSql(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    auto plan = PhysicalPlan::Create(*stmt, schema);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ((*plan)->agg_pushdown() != nullptr, folds);
    std::vector<int> indices;
    for (const std::string& name : (*plan)->required_columns()) {
      indices.push_back(schema.IndexOf(name));
    }
    std::vector<Row> scan_rows;
    for (const Row& row : rows) {
      Row projected;
      for (int idx : indices) {
        projected.push_back(row[static_cast<size_t>(idx)]);
      }
      scan_rows.push_back(std::move(projected));
    }
    PartialResult row_partial;
    for (const Row& row : scan_rows) {
      (*plan)->ProcessRow(row, /*filters_already_applied=*/false,
                          &row_partial);
    }
    PartialResult batch_partial;
    for (size_t pos = 0; pos < scan_rows.size(); pos += 97) {
      std::vector<Row> slice(
          scan_rows.begin() + static_cast<std::ptrdiff_t>(pos),
          scan_rows.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(pos + 97, scan_rows.size())));
      (*plan)->ProcessBatch(
          RecordBatch::FromRows((*plan)->scan_schema(), slice),
          /*filters_already_applied=*/false, &batch_partial);
    }
    EXPECT_EQ(batch_partial.rows_seen, row_partial.rows_seen);
    EXPECT_EQ(batch_partial.rows_passed, row_partial.rows_passed);
    ASSERT_EQ(batch_partial.groups.size(), row_partial.groups.size());
    auto want = row_partial.groups.begin();
    for (const auto& [key, group] : batch_partial.groups) {
      EXPECT_EQ(key, want->first);
      EXPECT_EQ(SerializeGroupKey(group.key_values), key);
      std::string got_states, want_states;
      for (const AggState& state : group.states) state.EncodeTo(&got_states);
      for (const AggState& state : want->second.states) {
        state.EncodeTo(&want_states);
      }
      EXPECT_EQ(got_states, want_states) << "group " << key;
      ++want;
    }
    auto a = (*plan)->Finalize(std::move(batch_partial));
    auto b = (*plan)->Finalize(std::move(row_partial));
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->ToCsv(), b->ToCsv());
  }
}

// The one group-key encoder: SerializeGroupKey's bytes are pinned, and
// each typed AppendGroupKey* call the fold makes reproduces them.
TEST(GroupKeyEncoderTest, TypedEncoderReproducesSerializeGroupKey) {
  const Row key = {Value::Null(),
                   Value(std::numeric_limits<int64_t>::min()),
                   Value(static_cast<int64_t>(42)),
                   Value(1.5),
                   Value(-0.0),
                   Value(std::numeric_limits<double>::infinity()),
                   Value(std::string()),
                   Value(std::string("2015-01"))};
  EXPECT_EQ(SerializeGroupKey(key),
            std::string("n\x1f"
                        "i-9223372036854775808\x1f"
                        "i42\x1f"
                        "d0x1.8p+0\x1f"
                        "d-0x0p+0\x1f"
                        "dinf\x1f"
                        "s\x1f"
                        "s2015-01\x1f"));
  std::string typed;
  AppendGroupKeyNull(&typed);
  AppendGroupKeyInt64(std::numeric_limits<int64_t>::min(), &typed);
  AppendGroupKeyInt64(42, &typed);
  AppendGroupKeyDouble(1.5, &typed);
  AppendGroupKeyDouble(-0.0, &typed);
  AppendGroupKeyDouble(std::numeric_limits<double>::infinity(), &typed);
  AppendGroupKeyString("", &typed);
  AppendGroupKeyString("2015-01", &typed);
  EXPECT_EQ(typed, SerializeGroupKey(key));
  const double nan = std::nan("");
  std::string nan_key;
  AppendGroupKeyDouble(nan, &nan_key);
  EXPECT_EQ(nan_key, SerializeGroupKey({Value(nan)}));
  EXPECT_NE(nan_key, SerializeGroupKey({Value(-nan)}));
}

}  // namespace
}  // namespace scoop
