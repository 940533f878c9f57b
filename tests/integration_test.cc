// End-to-end tests of the full Scoop stack: generated GridPocket data is
// uploaded into the Swift-like cluster and queried through the Spark-like
// session, with and without pushdown; results must match each other and a
// single-process reference evaluation.
#include <gtest/gtest.h>

#include <cmath>

#include "common/strings.h"

#include "scoop/scoop.h"
#include "sql/executor.h"
#include "storlets/headers.h"
#include "workload/generator.h"
#include "workload/queries.h"

namespace scoop {
namespace {

class ScoopIntegrationTest : public ::testing::Test {
 protected:
  static constexpr int kNumObjects = 3;

  void SetUp() override {
    SwiftConfig config;
    config.num_proxies = 2;
    config.num_storage_nodes = 4;
    config.disks_per_node = 2;
    config.part_power = 6;
    auto cluster = ScoopCluster::Create(config);
    ASSERT_TRUE(cluster.ok()) << cluster.status();
    cluster_ = std::move(cluster).value();
    auto client = cluster_->Connect("gridpocket", "secret", "gp");
    ASSERT_TRUE(client.ok());

    GeneratorConfig gen_config;
    gen_config.num_meters = 25;
    gen_config.readings_per_meter = 5000;  // ~34 days: Jan + some of Feb
    gen_config.seed = 2015;
    generator_ = std::make_unique<GridPocketGenerator>(gen_config);
    schema_ = GridPocketGenerator::MeterSchema();

    session_ = std::make_unique<ScoopSession>(cluster_.get(),
                                              std::move(client).value(),
                                              /*num_workers=*/4);
    ASSERT_TRUE(generator_
                    ->Upload(&session_->client(), "meters", "m", kNumObjects)
                    .ok());

    CsvSourceOptions options;
    options.chunk_size = 64 * 1024;
    session_->RegisterCsvTable("largeMeter", "meters", "m", schema_, true,
                               options);
    session_->RegisterCsvTable("plainMeter", "meters", "m", schema_, false,
                               options);
  }

  // Reference: single-process evaluation over the generated rows.
  Result<ResultTable> Reference(const std::string& sql) {
    return ExecuteSqlOverRows(sql, schema_, generator_->MakeAllRows());
  }

  std::unique_ptr<ScoopCluster> cluster_;
  std::unique_ptr<ScoopSession> session_;
  std::unique_ptr<GridPocketGenerator> generator_;
  Schema schema_;
};

TEST_F(ScoopIntegrationTest, PushdownMatchesPlainAndReference) {
  const std::string sql =
      "SELECT vid, sum(index) as total FROM largeMeter "
      "WHERE city LIKE 'Rotterdam' AND date LIKE '2015-01%' "
      "GROUP BY vid ORDER BY vid";
  auto pushdown = session_->Sql(sql);
  ASSERT_TRUE(pushdown.ok()) << pushdown.status();

  std::string plain_sql = sql;
  plain_sql.replace(plain_sql.find("largeMeter"), 10, "plainMeter");
  auto plain = session_->Sql(plain_sql);
  ASSERT_TRUE(plain.ok()) << plain.status();

  auto reference = Reference(sql);
  ASSERT_TRUE(reference.ok()) << reference.status();

  EXPECT_EQ(pushdown->table.ToCsv(), plain->table.ToCsv());
  EXPECT_EQ(pushdown->table.ToCsv(), reference->ToCsv());
  EXPECT_FALSE(pushdown->table.rows.empty());

  // The whole point: pushdown ingests far fewer bytes.
  EXPECT_GT(pushdown->stats.partitions_pushdown, 0);
  EXPECT_EQ(plain->stats.partitions_pushdown, 0);
  EXPECT_LT(pushdown->stats.bytes_ingested, plain->stats.bytes_ingested / 4);
  EXPECT_GT(pushdown->stats.DataSelectivity(), 0.5);
  EXPECT_NEAR(plain->stats.DataSelectivity(), 0.0, 0.05);
}

TEST_F(ScoopIntegrationTest, AllGridPocketQueriesAgree) {
  for (const GridPocketQuery& query : GridPocketQueries()) {
    SCOPED_TRACE(query.name);
    auto pushdown = session_->Sql(query.sql);
    ASSERT_TRUE(pushdown.ok()) << query.name << ": " << pushdown.status();

    std::string plain_sql = query.sql;
    plain_sql.replace(plain_sql.find("largeMeter"), 10, "plainMeter");
    auto plain = session_->Sql(plain_sql);
    ASSERT_TRUE(plain.ok()) << query.name << ": " << plain.status();

    EXPECT_EQ(pushdown->table.ToCsv(), plain->table.ToCsv()) << query.name;
    EXPECT_FALSE(pushdown->table.rows.empty()) << query.name;

    auto reference = Reference(query.sql);
    ASSERT_TRUE(reference.ok()) << query.name;
    EXPECT_EQ(pushdown->table.ToCsv(), reference->ToCsv()) << query.name;

    EXPECT_LT(pushdown->stats.bytes_ingested, plain->stats.bytes_ingested)
        << query.name;
  }
}

TEST_F(ScoopIntegrationTest, ChunkSizeDoesNotChangeResults) {
  const std::string sql =
      "SELECT city, count(*) as n FROM largeMeter "
      "WHERE date LIKE '2015-01-0%' GROUP BY city ORDER BY city";
  std::string previous;
  for (uint64_t chunk : {16 * 1024ULL, 77 * 1024ULL, 1024 * 1024ULL}) {
    CsvSourceOptions options;
    options.chunk_size = chunk;
    session_->RegisterCsvTable("largeMeter", "meters", "m", schema_, true,
                               options);
    auto outcome = session_->Sql(sql);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    std::string csv = outcome->table.ToCsv();
    if (!previous.empty()) {
      EXPECT_EQ(csv, previous) << "chunk=" << chunk;
    }
    previous = csv;
  }
  EXPECT_FALSE(previous.empty());
}

TEST_F(ScoopIntegrationTest, ObjectAwarePartitioningAgrees) {
  const std::string sql =
      "SELECT state, sum(index) as s FROM largeMeter "
      "WHERE state LIKE 'U%' GROUP BY state ORDER BY state";
  auto fixed = session_->Sql(sql);
  ASSERT_TRUE(fixed.ok());

  CsvSourceOptions options;
  options.object_aware_partitioning = true;
  options.target_parallelism = 7;
  options.min_partition_bytes = 8 * 1024;
  session_->RegisterCsvTable("objectAware", "meters", "m", schema_, true,
                             options);
  auto aware = session_->Sql(
      "SELECT state, sum(index) as s FROM objectAware "
      "WHERE state LIKE 'U%' GROUP BY state ORDER BY state");
  ASSERT_TRUE(aware.ok());
  EXPECT_EQ(aware->table.ToCsv(), fixed->table.ToCsv());
}

TEST_F(ScoopIntegrationTest, BronzeTenantFallsBackToPlainIngest) {
  // §VII adaptive pushdown: disabling the policy must not change results,
  // only the ingestion volume.
  const std::string sql =
      "SELECT vid, sum(index) as s FROM largeMeter "
      "WHERE city LIKE 'Paris' GROUP BY vid ORDER BY vid";
  auto gold = session_->Sql(sql);
  ASSERT_TRUE(gold.ok());
  ASSERT_GT(gold->stats.partitions_pushdown, 0);

  StorletPolicy off;
  off.pushdown_enabled = false;
  cluster_->policies().SetContainerPolicy("gp", "meters", off);
  auto bronze = session_->Sql(sql);
  ASSERT_TRUE(bronze.ok()) << bronze.status();
  EXPECT_EQ(bronze->stats.partitions_pushdown, 0);
  EXPECT_EQ(bronze->table.ToCsv(), gold->table.ToCsv());
  EXPECT_GT(bronze->stats.bytes_ingested, gold->stats.bytes_ingested);
  // Each declined pushdown GET was sent before the plain re-read, so the
  // scan costs one request per partition over a plain scan.
  std::string plain_sql = sql;
  plain_sql.replace(plain_sql.find("largeMeter"), 10, "plainMeter");
  auto plain = session_->Sql(plain_sql);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(bronze->stats.requests,
            plain->stats.requests + bronze->stats.partitions);
  cluster_->policies().ClearContainerPolicy("gp", "meters");
}

TEST_F(ScoopIntegrationTest, ParquetTableMatchesCsvResults) {
  // Convert the dataset to parquet-like objects and compare query output.
  Schema schema = GridPocketGenerator::MeterSchema();
  ASSERT_TRUE(session_->client().CreateContainer("pq").ok());
  std::vector<Row> rows = generator_->MakeAllRows();
  size_t half = rows.size() / 2;
  ASSERT_TRUE(WriteParquetObject(&session_->client(), "pq", "p0", schema,
                                 {rows.begin(), rows.begin() + half})
                  .ok());
  ASSERT_TRUE(WriteParquetObject(&session_->client(), "pq", "p1", schema,
                                 {rows.begin() + half, rows.end()})
                  .ok());
  session_->RegisterParquetTable("pqMeter", "pq", "p", schema, true);

  const char* kSql =
      "SELECT city, sum(index) as s FROM %s "
      "WHERE date LIKE '2015-01-1%%' GROUP BY city ORDER BY city";
  auto csv_result = session_->Sql(StrFormat(kSql, "largeMeter"));
  ASSERT_TRUE(csv_result.ok()) << csv_result.status();
  auto pq_result = session_->Sql(StrFormat(kSql, "pqMeter"));
  ASSERT_TRUE(pq_result.ok()) << pq_result.status();
  EXPECT_EQ(pq_result->table.ToCsv(), csv_result->table.ToCsv());
  // Parquet transfers compressed objects: fewer bytes than plain CSV, but
  // row filters were not applied at the store.
  EXPECT_EQ(pq_result->stats.partitions_pushdown, 0);
}

TEST_F(ScoopIntegrationTest, ParquetColumnsStoredAsOtherTypesThanDeclared) {
  // A Parquet object's footer types its columns. A table declaring other
  // types for them reads the stored values, with the results of a table
  // that declares the stored types.
  Schema stored = GridPocketGenerator::MeterSchema();
  std::vector<Column> columns = stored.columns();
  for (Column& column : columns) {
    if (column.name == "vid") column.type = ColumnType::kDouble;
    if (column.name == "sumHC") column.type = ColumnType::kInt64;
    if (column.name == "city") column.type = ColumnType::kInt64;
  }
  ASSERT_TRUE(session_->client().CreateContainer("pqt").ok());
  std::vector<Row> rows = generator_->MakeAllRows();
  size_t half = rows.size() / 2;
  ASSERT_TRUE(WriteParquetObject(&session_->client(), "pqt", "p0", stored,
                                 {rows.begin(), rows.begin() + half})
                  .ok());
  ASSERT_TRUE(WriteParquetObject(&session_->client(), "pqt", "p1", stored,
                                 {rows.begin() + half, rows.end()})
                  .ok());
  session_->RegisterParquetTable("pqStored", "pqt", "p", stored);
  session_->RegisterParquetTable("pqDeclared", "pqt", "p",
                                 Schema(std::move(columns)));

  // The last three filter on the re-declared numeric columns: Parquet
  // applies no row filter, so the driver runs the pushed filter itself,
  // and these batches are not typed as the plan reads them.
  for (const char* sql :
       {"SELECT city, sum(vid), min(vid), max(vid), first_value(vid), "
        "count(*) FROM %s GROUP BY city ORDER BY city",
        "SELECT vid, sum(sumHC), max(sumHC), first_value(city) FROM %s "
        "GROUP BY vid ORDER BY vid",
        "SELECT city, count(*), sum(sumHC) FROM %s WHERE vid >= 1012 "
        "GROUP BY city ORDER BY city",
        "SELECT vid, count(*), min(sumHC) FROM %s WHERE sumHC < 3000.5 "
        "GROUP BY vid ORDER BY vid",
        "SELECT vid, date, sumHC FROM %s WHERE vid < 1003 AND sumHC >= 100.5 "
        "ORDER BY vid, date LIMIT 20"}) {
    SCOPED_TRACE(sql);
    auto want = session_->Sql(StrFormat(sql, "pqStored"));
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = session_->Sql(StrFormat(sql, "pqDeclared"));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_FALSE(got->table.rows.empty());
    EXPECT_EQ(got->table.ToCsv(), want->table.ToCsv());
  }
}

TEST_F(ScoopIntegrationTest, StorletRddInvokesFilterPerObject) {
  StorletParams params;
  params["schema"] = schema_.ToSpec();
  params["projection"] = "city";
  params["selection"] = "(like city \"Nice\")";
  StorletRdd rdd = session_->MakeStorletRdd("meters", "m", "csvstorlet",
                                            std::move(params));
  auto outputs = rdd.Collect();
  ASSERT_TRUE(outputs.ok()) << outputs.status();
  ASSERT_EQ(outputs->size(), static_cast<size_t>(kNumObjects));
  int nice_rows = 0;
  for (const auto& output : *outputs) {
    EXPECT_TRUE(output.executed_at_store);
    for (std::string_view line : Split(output.output, '\n')) {
      if (line.empty()) continue;
      EXPECT_EQ(line, "Nice");
      ++nice_rows;
    }
  }
  EXPECT_GT(nice_rows, 0);
}

TEST_F(ScoopIntegrationTest, EtlUploadThenQuery) {
  // Dirty CSV (whitespace, CRLF, malformed rows) cleaned on the PUT path
  // is immediately queryable.
  std::string dirty =
      " 1001 , 2015-01-01 00:00:00 , 10 , 1.0 , 2.0 , 1.1 , 2.2 , Nice , "
      "FRA , south \r\n"
      "garbage row\r\n"
      "1002,2015-01-01 00:10:00,20,2.0,3.0,1.1,2.2,Paris,FRA,west\r\n";
  StorletParams etl;
  etl["schema"] = schema_.ToSpec();
  ASSERT_TRUE(session_->client().CreateContainer("raw").ok());
  ASSERT_TRUE(
      session_->stocator().PutObject("raw", "upload.csv", dirty, &etl).ok());
  session_->RegisterCsvTable("rawMeter", "raw", "upload", schema_, true);
  auto outcome = session_->Sql(
      "SELECT vid, city FROM rawMeter ORDER BY vid");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->table.ToCsv(), "1001,Nice\n1002,Paris\n");
}

TEST_F(ScoopIntegrationTest, StatsAccounting) {
  auto outcome = session_->Sql(
      "SELECT count(*) as n FROM plainMeter");
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->table.rows.size(), 1u);
  EXPECT_EQ(outcome->table.rows[0][0].AsInt64(), generator_->TotalRows());
  EXPECT_EQ(outcome->stats.rows_scanned, generator_->TotalRows());
  EXPECT_EQ(outcome->stats.rows_passed, generator_->TotalRows());
  EXPECT_GT(outcome->stats.partitions, 1);
  EXPECT_GE(outcome->stats.requests, outcome->stats.partitions);
}


// Structural test at the paper's testbed shape: 6 proxies, 29 object
// nodes with 10 disks (290 devices), 3 replicas — the real OSIC layout —
// with a small dataset and a pushdown query through all of it.
TEST(OsicShapeTest, FullTestbedShapeWorksEndToEnd) {
  SwiftConfig config;
  config.num_proxies = 6;
  config.num_storage_nodes = 29;
  config.disks_per_node = 10;
  config.num_zones = 5;
  config.part_power = 10;
  config.replica_count = 3;
  auto cluster = ScoopCluster::Create(config);
  ASSERT_TRUE(cluster.ok()) << cluster.status();
  EXPECT_EQ((*cluster)->swift().ring().devices().size(), 290u);

  auto client = (*cluster)->Connect("gp", "key", "gp");
  ASSERT_TRUE(client.ok());
  ScoopSession session(cluster->get(), std::move(client).value(), 4);
  GridPocketGenerator generator({.num_meters = 10,
                                 .readings_per_meter = 200,
                                 .seed = 63});
  ASSERT_TRUE(generator.Upload(&session.client(), "meters", "m", 6).ok());
  session.RegisterCsvTable("largeMeter", "meters", "m",
                           GridPocketGenerator::MeterSchema(), true);
  auto outcome = session.Sql(
      "SELECT city, count(*) AS n FROM largeMeter GROUP BY city "
      "ORDER BY city");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  int64_t total = 0;
  for (const Row& row : outcome->table.rows) total += row[1].AsInt64();
  EXPECT_EQ(total, generator.TotalRows());
  EXPECT_GT(outcome->stats.partitions_pushdown, 0);

  // Replica placement is balanced across the 290 devices.
  std::vector<int> counts = (*cluster)->swift().ring()
                                .ReplicaCountsPerDevice();
  double fair = 3.0 * 1024 / 290.0;
  int outliers = 0;
  for (int c : counts) {
    if (std::abs(c - fair) > fair * 0.5) ++outliers;
  }
  EXPECT_LT(outliers, 29);
}

TEST_F(ScoopIntegrationTest, ExplainThroughSession) {
  auto text = session_->spark().ExplainSql(
      "SELECT vid, sum(index) AS s FROM largeMeter "
      "WHERE city LIKE 'Rotterdam' GROUP BY vid ORDER BY vid");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("pushed filter:   (like city \"Rotterdam\")"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("Scan [vid, index, city]"), std::string::npos)
      << *text;
}

}  // namespace
}  // namespace scoop
