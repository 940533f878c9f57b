// Randomized differential tester for the three execution modes of one
// query: no pushdown (raw ranged GETs, everything compute-side),
// select-only pushdown (CSVStorlet projection/selection), and aggregate
// pushdown (GroupAggStorlet partial states, DESIGN.md §3i). Every seeded
// query must produce an identical result table in all three modes and
// match the single-process reference evaluator — the planner's
// eligibility matrix (residuals, HAVING, LIMIT shapes) and the
// order-sensitive first_value partial state are exactly the boundary
// this fuzzer patrols.
//
// Replay one failing seed:  SCOOP_FUZZ_SEED=<n> ./sql_differential_test
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "common/strings.h"
#include "csv/batch_reader.h"
#include "scoop/scoop.h"
#include "sql/catalyst.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "workload/generator.h"

namespace scoop {
namespace {

// Seeds are kSeedBase + i so a CI failure names a stable integer that
// reproduces forever, independent of how many seeds the job runs.
constexpr uint64_t kSeedBase = 20150800;
constexpr int kNumSeeds = 500;

// Headerless CSV rows of MeterSchema shape covering the corners random
// GridPocket data never produces: int64 sums that wrap, doubles that
// overflow to inf or parse to NaN, empty (null) numeric fields, quoted
// commas, and a string field that *begins* like a binary frame magic.
// vid is unique so ORDER BY vid is a total order.
constexpr char kCornerCsv0[] =
    "1,2015-01-01 00:00:00,9223372036854775807,1e308,-1e308,0.5,0.5,"
    "Rotterdam,NL,EU\n"
    "2,2015-01-01 01:00:00,9223372036854775807,1e308,1e308,nan,0.5,"
    "Rotterdam,NL,EU\n"
    "3,2015-01-02 00:00:00,-9223372036854775808,nan,2.5,1.5,,Paris,FRA,EU\n"
    "4,2015-01-02 03:00:00,,,,,,\"Par,is\",FRA,EU\n";
constexpr char kCornerCsv1[] =
    "5,2015-02-01 00:00:00,42,0.125,-0.0,3.25,-1.5,Utrecht,NL,EU\n"
    "6,2015-02-03 00:00:00,-7,1e-5,7.5,,2.25,Utrecht,NL,EU\n"
    "7,2016-03-09 09:00:00,13,2.5,3.5,4.5,5.5,SBT1city,US,NA\n"
    "8,2015-03-01 00:00:00,1,0.1,0.2,0.3,0.4,Zz,US,NA\n";

// Cell-wise CSV comparison with a relative tolerance for numeric cells.
// The three cluster modes share the same partitioning and accumulation
// order, so they must match *exactly*; the single-process reference
// evaluator folds doubles in one sequential pass instead of a
// partition-merge tree, and that association difference can flip the
// last printed significant digit of a sum/avg.
testing::AssertionResult CsvAlmostEqual(const std::string& got,
                                        const std::string& want) {
  if (got == want) return testing::AssertionSuccess();
  std::vector<std::string_view> got_cells = Split(got, '\n');
  std::vector<std::string_view> want_cells = Split(want, '\n');
  if (got_cells.size() != want_cells.size()) {
    return testing::AssertionFailure()
           << "row count differs: got\n" << got << "want\n" << want;
  }
  for (size_t i = 0; i < got_cells.size(); ++i) {
    std::vector<std::string_view> g = Split(got_cells[i], ',');
    std::vector<std::string_view> w = Split(want_cells[i], ',');
    if (g.size() != w.size()) {
      return testing::AssertionFailure()
             << "arity differs at row " << i << ": got \"" << got_cells[i]
             << "\" want \"" << want_cells[i] << "\"";
    }
    for (size_t j = 0; j < g.size(); ++j) {
      if (g[j] == w[j]) continue;
      char* g_end = nullptr;
      char* w_end = nullptr;
      std::string gs(g[j]);
      std::string ws(w[j]);
      double gd = std::strtod(gs.c_str(), &g_end);
      double wd = std::strtod(ws.c_str(), &w_end);
      bool numeric = g_end != gs.c_str() && *g_end == '\0' &&
                     w_end != ws.c_str() && *w_end == '\0';
      if (numeric &&
          std::fabs(gd - wd) <=
              1e-5 * std::max(std::fabs(gd), std::fabs(wd))) {
        continue;
      }
      return testing::AssertionFailure()
             << "cell (" << i << "," << j << ") differs: got \"" << g[j]
             << "\" want \"" << w[j] << "\"";
    }
  }
  return testing::AssertionSuccess();
}

std::vector<Row> ParseCsvRows(const std::string& data, const Schema& schema) {
  CsvBatchReader reader(data, &schema);
  std::vector<Row> rows;
  RecordBatch batch;
  Row row;
  while (reader.Next(&batch)) {
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      batch.ExtractRow(i, &row);
      rows.push_back(row);
    }
  }
  return rows;
}

class SqlDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SwiftConfig config;
    config.num_proxies = 1;
    config.num_storage_nodes = 2;
    config.disks_per_node = 2;
    config.part_power = 4;
    auto cluster = ScoopCluster::Create(config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->Connect("fuzz", "secret", "fz");
    ASSERT_TRUE(client.ok());
    schema_ = GridPocketGenerator::MeterSchema();

    session_ = std::make_unique<ScoopSession>(cluster_.get(),
                                              std::move(client).value(),
                                              /*num_workers=*/2);

    // Small generated dataset: differential coverage comes from query
    // count, not data volume.
    GeneratorConfig gen_config;
    gen_config.num_meters = 3;
    gen_config.readings_per_meter = 150;
    gen_config.seed = 2015;
    generator_ = std::make_unique<GridPocketGenerator>(gen_config);
    ASSERT_TRUE(generator_
                    ->Upload(&session_->client(), "meters", "m",
                             /*num_objects=*/2)
                    .ok());
    meter_rows_ = generator_->MakeAllRows();

    ASSERT_TRUE(session_->client().CreateContainer("corner").ok());
    ASSERT_TRUE(session_->client()
                    .PutObject("corner", "c-000000", kCornerCsv0, {})
                    .ok());
    ASSERT_TRUE(session_->client()
                    .PutObject("corner", "c-000001", kCornerCsv1, {})
                    .ok());
    corner_rows_ = ParseCsvRows(std::string(kCornerCsv0) + kCornerCsv1,
                                schema_);
    ASSERT_EQ(corner_rows_.size(), 8u);

    // Three registrations per dataset — one per execution mode. Tiny
    // chunks keep several partitions in play so partial-state merging
    // across partitions is exercised, not just computed.
    CsvSourceOptions raw;
    raw.chunk_size = 8 * 1024;
    CsvSourceOptions select_only = raw;
    select_only.agg_pushdown_enabled = false;
    select_only.limit_pushdown_enabled = false;
    CsvSourceOptions agg = raw;
    RegisterModes("meters", "m", raw, select_only, agg);
    CsvSourceOptions corner_raw = raw;
    corner_raw.chunk_size = 128;  // a few rows per partition
    RegisterModes("corner", "c", corner_raw, corner_raw, corner_raw);
  }

  void RegisterModes(const std::string& container, const std::string& prefix,
                     CsvSourceOptions raw, CsvSourceOptions select_only,
                     CsvSourceOptions agg) {
    select_only.agg_pushdown_enabled = false;
    select_only.limit_pushdown_enabled = false;
    session_->RegisterCsvTable(container + "Raw", container, prefix, schema_,
                               /*pushdown=*/false, raw);
    session_->RegisterCsvTable(container + "Sel", container, prefix, schema_,
                               /*pushdown=*/true, select_only);
    session_->RegisterCsvTable(container + "Agg", container, prefix, schema_,
                               /*pushdown=*/true, agg);
  }

  // Runs one templated query (table spelled %T%) through all three modes
  // plus the reference evaluator and requires four identical tables.
  void CheckQuery(const std::string& sql_template, const std::string& dataset,
                  uint64_t seed) {
    const std::vector<Row>& rows =
        dataset == "meters" ? meter_rows_ : corner_rows_;
    std::string label =
        StrFormat("seed=%llu sql=%s", static_cast<unsigned long long>(seed),
                  sql_template.c_str());
    auto at = [&](const std::string& table) {
      std::string sql = sql_template;
      size_t pos = sql.find("%T%");
      sql.replace(pos, 3, dataset + table);
      return sql;
    };
    auto raw = session_->Sql(at("Raw"));
    ASSERT_TRUE(raw.ok()) << label << ": " << raw.status();
    auto sel = session_->Sql(at("Sel"));
    ASSERT_TRUE(sel.ok()) << label << ": " << sel.status();
    auto agg = session_->Sql(at("Agg"));
    ASSERT_TRUE(agg.ok()) << label << ": " << agg.status();
    auto reference = ExecuteSqlOverRows(at("Raw"), schema_, rows);
    ASSERT_TRUE(reference.ok()) << label << ": " << reference.status();

    const std::string want = raw->table.ToCsv();
    EXPECT_EQ(sel->table.ToCsv(), want) << "select-only diverged: " << label;
    EXPECT_EQ(agg->table.ToCsv(), want) << "agg pushdown diverged: " << label;
    EXPECT_TRUE(CsvAlmostEqual(reference->ToCsv(), want))
        << "reference diverged: " << label;
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<ScoopSession> session_;
  std::unique_ptr<GridPocketGenerator> generator_;
  std::vector<Row> meter_rows_;
  std::vector<Row> corner_rows_;
  Schema schema_;
};

// One random query per seed. Everything derives from the seed alone so
// SCOOP_FUZZ_SEED replays an exact query.
struct FuzzQuery {
  std::string sql;      // with %T% table placeholder
  std::string dataset;  // "meters" or "corner"
  // A first_value query with no residual and no HAVING: the aggregate
  // pushdown must ship it as SAG1 partials.
  bool pushes_first_value = false;
};

// Residual predicates: true on every row (so they change no answer)
// but non-convertible, which disqualifies aggregate pushdown and forces
// the select-only fallback. ResidualPredicatesStayResidual holds them so.
constexpr const char* kResidualPredicates[] = {
    "vid = vid OR vid IS NULL",
    "SUBSTRING(date, 0, 4) IS NOT NULL OR SUBSTRING(date, 0, 4) IS NULL",
};

FuzzQuery GenerateQuery(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };

  FuzzQuery out;
  out.dataset = pick(10) < 7 ? "meters" : "corner";

  // Pushable predicate pool (catalyst converts all of these).
  std::vector<std::string> pushable = {
      "city LIKE 'R%'",
      "city LIKE 'zzz%'",  // matches nothing: empty groups / empty result
      "date LIKE '2015-01%'",
      "date LIKE '2015-0" + std::to_string(1 + pick(3)) + "%'",
      "vid >= " + std::to_string(pick(6)),
      "vid < " + std::to_string(1 + pick(9)),
      "index > " + std::to_string(pick(2000)),
      "sumHC <= " + std::to_string(pick(1000)) + ".5",
      "state LIKE '" + std::string(1, static_cast<char>('A' + pick(26))) +
          "%'",
      "index BETWEEN -10 AND " + std::to_string(pick(5000)),
  };

  std::string where;
  int num_preds = pick(3);
  for (int i = 0; i < num_preds; ++i) {
    where += (where.empty() ? "" : " AND ") + pushable[pick(
        static_cast<int>(pushable.size()))];
  }
  bool add_residual = pick(5) == 0;
  if (add_residual) {
    where += std::string(where.empty() ? "" : " AND ") +
             kResidualPredicates[pick(
                 static_cast<int>(std::size(kResidualPredicates)))];
  }
  if (!where.empty()) where = " WHERE " + where;

  bool aggregate_query = pick(10) < 7;
  if (!aggregate_query) {
    // Plain projection, usually with a LIMIT (the pushdown's
    // short-circuit path). LIMIT 0 is a corner the storlet must honor
    // without emitting a single row.
    std::vector<std::string> cols = {"vid",  "date", "index", "sumHC",
                                     "city", "state"};
    int keep = 1 + pick(4);
    std::string select;
    for (int i = 0; i < keep; ++i) {
      select += (select.empty() ? "" : ", ") +
                cols[(pick(static_cast<int>(cols.size())) + i) % cols.size()];
    }
    out.sql = "SELECT " + select + " FROM %T%" + where;
    int shape = pick(10);
    if (shape < 6) {
      out.sql += " LIMIT " + std::to_string(pick(40));  // 0..39
    } else if (shape < 8) {
      // ORDER BY disqualifies LIMIT pushdown; the driver must truncate.
      out.sql += " ORDER BY vid, date LIMIT " + std::to_string(1 + pick(20));
    }
    return out;
  }

  // Aggregate query: random group exprs + 1..3 aggregates.
  std::vector<std::string> group_pool = {
      "vid", "city", "state", "region", "SUBSTRING(date, 0, 7)",
      "SUBSTRING(date, 0, 10)"};
  std::vector<std::string> groups;
  int num_groups = pick(3);
  for (int i = 0; i < num_groups; ++i) {
    std::string g = group_pool[pick(static_cast<int>(group_pool.size()))];
    bool dup = false;
    for (const std::string& have : groups) dup = dup || have == g;
    if (!dup) groups.push_back(g);
  }

  std::vector<std::string> numeric = {"index", "sumHC", "sumHP", "lat",
                                      "long"};
  std::vector<std::string> kinds = {"sum", "min", "max", "count", "avg"};
  std::string select;
  int alias = 0;
  for (const std::string& g : groups) {
    select += (select.empty() ? "" : ", ") + g + " as g" +
              std::to_string(alias++);
  }
  int num_aggs = 1 + pick(3);
  bool with_having = pick(8) == 0;
  for (int i = 0; i < num_aggs; ++i) {
    std::string kind = kinds[pick(static_cast<int>(kinds.size()))];
    std::string arg = pick(6) == 0 && kind == "count"
                          ? "*"
                          : numeric[pick(static_cast<int>(numeric.size()))];
    select += (select.empty() ? "" : ", ") + kind + "(" + arg + ") as a" +
              std::to_string(i);
  }
  if (with_having) select += (select.empty() ? "" : ", ") + std::string(
      "count(*) as cnt");
  // first_value is order-sensitive: its partial state holds the first
  // row of a partition, and partitions merge in partition order. At low
  // probability it rides along.
  if (pick(8) == 0) {
    select += ", first_value(city) as fv";
    out.pushes_first_value = !add_residual && !with_having;
  }

  out.sql = "SELECT " + select + " FROM %T%" + where;
  if (!groups.empty()) {
    std::string list;
    for (const std::string& g : groups) list += (list.empty() ? "" : ", ") + g;
    out.sql += " GROUP BY " + list;
    out.sql += with_having ? " HAVING count(*) > 0" : "";
    out.sql += " ORDER BY " + list;
  } else if (with_having) {
    out.sql += " HAVING count(*) > 0";
  }
  return out;
}

// A residual predicate the catalyst learned to push would silently stop
// the fuzzer from exercising the select-only fallback.
TEST(SqlDifferentialPoolTest, ResidualPredicatesStayResidual) {
  const Schema schema = GridPocketGenerator::MeterSchema();
  for (const char* text : kResidualPredicates) {
    auto expr = ParseExpression(text);
    ASSERT_TRUE(expr.ok()) << text;
    SourceFilter filter;
    EXPECT_FALSE(TryConvertToSourceFilter(**expr, schema, &filter)) << text;
  }
}

TEST_F(SqlDifferentialTest, RandomizedThreeModeDifferential) {
  // SCOOP_FUZZ_SEED replays exactly one seed (with its query printed on
  // failure); otherwise the full schedule runs.
  const char* replay = std::getenv("SCOOP_FUZZ_SEED");
  uint64_t first = kSeedBase;
  uint64_t last = kSeedBase + kNumSeeds;
  if (replay != nullptr && *replay != '\0') {
    first = std::strtoull(replay, nullptr, 10);
    last = first + 1;
  }
  Counter* partial_aggs =
      cluster_->metrics().GetCounter("pushdown.partial_aggs");
  int first_value_pushed = 0;
  for (uint64_t seed = first; seed < last; ++seed) {
    FuzzQuery q = GenerateQuery(seed);
    const int64_t partials_before = partial_aggs->value();
    CheckQuery(q.sql, q.dataset, seed);
    if (q.pushes_first_value) {
      EXPECT_GT(partial_aggs->value(), partials_before)
          << "first_value query was not pushed down: seed=" << seed
          << " sql=" << q.sql;
      ++first_value_pushed;
    }
    if (HasFatalFailure() || HasNonfatalFailure()) break;  // first divergence
  }

  // The run must actually have exercised the pushdown paths — a fuzzer
  // that silently stopped pushing aggregates would pass vacuously.
  if (replay == nullptr) {
    EXPECT_GT(partial_aggs->value(), 0);
    EXPECT_GT(first_value_pushed, 0);
    EXPECT_GT(cluster_->metrics()
                  .GetCounter("pushdown.limit_short_circuits")
                  ->value(),
              0);
  }
}

// Deterministic corner schedule: the shapes most likely to diverge, run
// every time regardless of what the random schedule happened to draw.
TEST_F(SqlDifferentialTest, CornerSchedule) {
  struct Corner {
    const char* name;
    const char* sql;
    const char* dataset;
  };
  const Corner corners[] = {
      {"int64-sum-wraps",
       "SELECT city as g0, sum(index) as a0 FROM %T% GROUP BY city "
       "ORDER BY city",
       "corner"},
      {"double-sum-overflows-to-inf",
       "SELECT sum(sumHC) as a0, sum(sumHP) as a1 FROM %T%", "corner"},
      {"nan-into-min-max",
       "SELECT min(sumHC) as a0, max(sumHC) as a1, min(lat) as a2 FROM %T%",
       "corner"},
      {"all-null-group-avg",
       "SELECT avg(sumHC) as a0, count(sumHC) as a1 FROM %T% "
       "WHERE city LIKE 'Par,is'",
       "corner"},
      {"empty-group-set",
       "SELECT state as g0, sum(index) as a0 FROM %T% WHERE city LIKE 'zzz%' "
       "GROUP BY state ORDER BY state",
       "corner"},
      {"substr-group-on-adversarial-strings",
       "SELECT SUBSTRING(city, 0, 4) as g0, count(*) as a0 FROM %T% "
       "GROUP BY SUBSTRING(city, 0, 4) ORDER BY SUBSTRING(city, 0, 4)",
       "corner"},
      {"limit-zero", "SELECT vid, city FROM %T% LIMIT 0", "corner"},
      // Single-column projection of a null field: the projected record is
      // all-empty and must still round-trip as a row (quoted-empty, not a
      // blank line the readers would skip).
      {"single-column-null-projection",
       "SELECT index FROM %T% LIMIT 5", "corner"},
      {"limit-prefix-across-partitions",
       "SELECT vid, date FROM %T% LIMIT 5", "corner"},
      {"monthly-mean",
       "SELECT SUBSTRING(date, 0, 7) as month, avg(index) as mean FROM %T% "
       "GROUP BY SUBSTRING(date, 0, 7) ORDER BY SUBSTRING(date, 0, 7)",
       "meters"},
      {"global-aggregate-no-groups",
       "SELECT sum(index) as a0, avg(sumHC) as a1, count(*) as a2 FROM %T%",
       "meters"},
      // The 2015 group spans every partition of c-000000 and c-000001,
      // and its first surviving row (vid 4) has null lat, index and
      // long: first_value must keep those nulls over the later values.
      {"first-value-null-first-row-across-partitions",
       "SELECT SUBSTRING(date, 0, 4) as g0, first_value(lat) as a0, "
       "first_value(index) as a1, first_value(city) as a2, "
       "first_value(long) as a3, sum(index) as a4 FROM %T% WHERE vid >= 4 "
       "GROUP BY SUBSTRING(date, 0, 4) ORDER BY SUBSTRING(date, 0, 4)",
       "corner"},
      {"first-value-monthly-per-meter",
       "SELECT SUBSTRING(date, 0, 7) as g0, vid as g1, "
       "first_value(lat) as a0, first_value(state) as a1, sum(index) as a2 "
       "FROM %T% GROUP BY SUBSTRING(date, 0, 7), vid "
       "ORDER BY SUBSTRING(date, 0, 7), vid",
       "meters"},
  };
  Counter* partial_aggs =
      cluster_->metrics().GetCounter("pushdown.partial_aggs");
  for (const Corner& corner : corners) {
    SCOPED_TRACE(corner.name);
    const int64_t partials_before = partial_aggs->value();
    CheckQuery(corner.sql, corner.dataset, /*seed=*/0);
    if (std::string(corner.sql).find("first_value") != std::string::npos) {
      EXPECT_GT(partial_aggs->value(), partials_before)
          << "first_value corner was not pushed down";
    }
  }
}

// A pushed filter types an int64 column the way the compute-side scan
// does: "1.5" there is null, and integers past 2^53 compare exactly, not
// as rounded doubles. A double literal reaches the storlet exactly, not
// rounded to six digits, and stays a double even when it is integral.
// An empty or unparseable field is null on both sides, so a null test on
// the numeric column is pushed too, and an aggregate behind it still
// ships partial states. Each query must keep the same rows, pushdown on
// or off.
TEST(PushdownTypingTest, NumericFiltersMatchThePlainScan) {
  SwiftConfig config;
  config.num_proxies = 1;
  config.num_storage_nodes = 2;
  config.disks_per_node = 2;
  config.part_power = 4;
  auto cluster = ScoopCluster::Create(config);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  auto client = (*cluster)->Connect("typing", "secret", "ty");
  ASSERT_TRUE(client.ok());
  ScoopSession session(cluster->get(), std::move(client).value(),
                       /*num_workers=*/1);
  ASSERT_TRUE(session.client().CreateContainer("ids").ok());
  const std::string csv =
      "1,a,1234567\n1.5,b,1234568\n2,c,1234571\n9007199254740993,d,0\n"
      "-9223372036854775808,e,0\n,f,0\n";
  ASSERT_TRUE(session.client().PutObject("ids", "i-0", csv, {}).ok());
  auto schema = Schema::FromSpec("vid:int64,name:string,v:double");
  ASSERT_TRUE(schema.ok()) << schema.status();
  session.RegisterCsvTable("idsPush", "ids", "i", *schema, /*pushdown=*/true);
  session.RegisterCsvTable("idsPlain", "ids", "i", *schema,
                           /*pushdown=*/false);

  struct Case {
    const char* where;
    const char* names;  // the rows kept, by name
  };
  const Case cases[] = {
      {"vid > 1", "c,d"},
      {"NOT (vid > 1)", "a,b,e,f"},
      {"vid > 9007199254740992", "d"},
      // A double literal compares as a double on both sides, however
      // integral it looks: 9007199254740993 rounds to the literal.
      {"vid > 9007199254740992.0", ""},
      {"vid <= 9007199254740992.0", "a,c,d,e"},
      {"v > 1234567.5", "b,c"},
      // A negated literal is pushed, INT64_MIN included.
      {"vid > -1", "a,c,d"},
      {"vid > -9223372036854775808", "a,c,d"},
      {"vid = -9223372036854775808", "e"},
      {"vid IS NULL", "b,f"},
      {"vid IS NOT NULL", "a,c,d,e"},
  };
  for (const Case& c : cases) {
    for (const char* table : {"idsPush", "idsPlain"}) {
      SCOPED_TRACE(std::string(table) + " WHERE " + c.where);
      auto outcome = session.Sql(StrFormat(
          "SELECT name FROM %s WHERE %s ORDER BY name", table, c.where));
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      std::vector<std::string> names;
      for (const Row& row : outcome->table.rows) {
        names.push_back(row[0].ToString());
      }
      EXPECT_EQ(Join(names, ","), c.names);
      EXPECT_EQ(outcome->stats.partitions_pushdown > 0,
                std::string(table) == "idsPush");
    }
  }

  Counter* partial_aggs =
      (*cluster)->metrics().GetCounter("pushdown.partial_aggs");
  const int64_t partials_before = partial_aggs->value();
  for (const char* table : {"idsPush", "idsPlain"}) {
    SCOPED_TRACE(table);
    auto outcome = session.Sql(StrFormat(
        "SELECT count(*) FROM %s WHERE vid IS NOT NULL", table));
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_EQ(outcome->table.rows.size(), 1u);
    EXPECT_EQ(outcome->table.rows[0][0].ToString(), "4");
  }
  EXPECT_GT(partial_aggs->value(), partials_before)
      << "the null test kept the aggregate from being pushed";
}

}  // namespace
}  // namespace scoop
