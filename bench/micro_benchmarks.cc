// Micro-benchmarks (google-benchmark) of the hot code paths behind the
// figure-scale results: LIKE matching, CSV parsing, the CSVStorlet in its
// row-discard / column-projection / mixed modes (the mechanism behind the
// Fig. 5 row-vs-column gap), the ETL upload storlet, ring lookups, the LZ
// codec, the parquet-like codec, the object server's chunk hashing, SQL
// parsing/planning, the group fold behind aggregate pushdown and driver
// aggregation, and a chunk-size ablation of the real end-to-end query path
// (§VII's partitioning discussion).
#include <benchmark/benchmark.h>

#include "common/bytestream.h"
#include "common/strings.h"
#include "csv/agg_storlet.h"
#include "csv/batch_reader.h"
#include "csv/csv_storlet.h"
#include "csv/etl_storlet.h"
#include "csv/record_reader.h"
#include "common/lz.h"
#include "datasource/parquet_format.h"
#include "objectstore/device.h"
#include "objectstore/ring.h"
#include "bench/bench_util.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "workload/generator.h"
#include "workload/queries.h"

namespace scoop {
namespace {

std::string SampleCsv(int rows) {
  GridPocketGenerator generator({.num_meters = 50,
                                 .readings_per_meter = rows / 50 + 1,
                                 .seed = 1});
  std::string csv;
  generator.AppendCsv(0, rows, &csv);
  return csv;
}

void BM_LikeMatch(benchmark::State& state) {
  std::string text = "2015-01-17 10:20:00";
  std::string pattern = "2015-01-%";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LikeMatch(text, pattern));
  }
}
BENCHMARK(BM_LikeMatch);

void BM_LikeMatchBacktracking(benchmark::State& state) {
  std::string text(200, 'a');
  std::string pattern = "%a%b";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LikeMatch(text, pattern));
  }
}
BENCHMARK(BM_LikeMatchBacktracking);

// The retired row-at-a-time engine, kept as the reference arm of the
// columnar ablation.
void BM_CsvParseRowReference(benchmark::State& state) {
  std::string csv = SampleCsv(20000);
  Schema schema = GridPocketGenerator::MeterSchema();
  for (auto _ : state) {
    ScalarRowReader reader(csv, &schema);
    Row row;
    int64_t n = 0;
    while (reader.Next(&row)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_CsvParseRowReference);

void BM_CsvBatchParse(benchmark::State& state) {
  std::string csv = SampleCsv(20000);
  Schema schema = GridPocketGenerator::MeterSchema();
  for (auto _ : state) {
    CsvBatchReader reader(csv, &schema);
    RecordBatch batch;
    int64_t n = 0;
    while (reader.Next(&batch)) n += batch.num_rows();
    benchmark::DoNotOptimize(n);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_CsvBatchParse);

// Runs `storlet` over `csv` once per iteration, streaming the one shared
// input buffer without copying it; reports the input rate.
void RunStorletBenchmark(benchmark::State& state, Storlet& storlet,
                         std::shared_ptr<const std::string> csv,
                         StorletParams params) {
  params["schema"] = GridPocketGenerator::MeterSchema().ToSpec();
  std::string output;
  for (auto _ : state) {
    SharedBufferByteStream source(csv, *csv);
    StorletInputStream in(&source);
    output.clear();
    StringByteSink sink(&output);
    StorletOutputStream out(&sink);
    StorletLogger logger;
    Status s = storlet.Invoke(in, out, params, logger);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    out.Flush();
    benchmark::DoNotOptimize(output.size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv->size()));
}

// The CSVStorlet in its three Fig. 5 modes.
void RunStorletBenchmark(benchmark::State& state, StorletParams params) {
  CsvStorlet storlet;
  RunStorletBenchmark(
      state, storlet, std::make_shared<const std::string>(SampleCsv(20000)),
      std::move(params));
}

void BM_CsvStorletRowDiscard(benchmark::State& state) {
  RunStorletBenchmark(state,
                      {{"selection", "(like date \"2015-01-01%\")"}});
}
BENCHMARK(BM_CsvStorletRowDiscard);

void BM_CsvStorletColumnProjection(benchmark::State& state) {
  RunStorletBenchmark(state, {{"projection", "vid,index"}});
}
BENCHMARK(BM_CsvStorletColumnProjection);

void BM_CsvStorletMixed(benchmark::State& state) {
  RunStorletBenchmark(state,
                      {{"selection", "(like date \"2015-01-01%\")"},
                       {"projection", "vid,index"}});
}
BENCHMARK(BM_CsvStorletMixed);

void BM_CsvStorletIdentity(benchmark::State& state) {
  RunStorletBenchmark(state, {});
}
BENCHMARK(BM_CsvStorletIdentity);

// The ETL upload storlet with `schema` alone. Arg 0 is the clean sample,
// whose records pass through as their own bytes; arg 1 pads every field
// with a space on each side, so trim re-renders every record.
void BM_EtlStorlet(benchmark::State& state) {
  std::string csv = SampleCsv(20000);
  if (state.range(0) == 1) {
    std::string padded = " ";
    for (char c : csv) {
      if (c == ',' || c == '\n') {
        padded += ' ';
        padded += c;
        padded += ' ';
      } else {
        padded += c;
      }
    }
    padded.pop_back();  // no field follows the final newline
    csv = std::move(padded);
  }
  EtlStorlet storlet;
  RunStorletBenchmark(state, storlet,
                      std::make_shared<const std::string>(std::move(csv)),
                      {});
}
BENCHMARK(BM_EtlStorlet)->Arg(0)->Arg(1);

void BM_RingLookup(benchmark::State& state) {
  std::vector<RingDevice> devices;
  for (int n = 0; n < 29; ++n) {
    for (int d = 0; d < 10; ++d) {
      RingDevice dev;
      dev.node = n;
      dev.zone = n % 5;
      devices.push_back(dev);
    }
  }
  auto ring = Ring::Build(devices, 12, 3);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring->GetNodes("/acct/cont/object-" + std::to_string(++i)));
  }
}
BENCHMARK(BM_RingLookup);

// The object server's per-PUT integrity pass (one Xxh64 per 64 KiB chunk);
// a GET verifies the same chunks at the same rate.
void BM_ChunkHashes(benchmark::State& state) {
  std::string csv = SampleCsv(20000);
  std::string payload;
  while (payload.size() < (8u << 20)) payload += csv;
  payload.resize(8u << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeChunkHashes(payload));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_ChunkHashes);

void BM_LzCompress(benchmark::State& state) {
  std::string csv = SampleCsv(20000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCompress(csv));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_LzCompress);

void BM_LzDecompress(benchmark::State& state) {
  std::string csv = SampleCsv(20000);
  std::string compressed = LzCompress(csv);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzDecompress(compressed));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_LzDecompress);

void BM_ParquetEncode(benchmark::State& state) {
  GridPocketGenerator generator({.num_meters = 50,
                                 .readings_per_meter = 200,
                                 .seed = 1});
  Schema schema = GridPocketGenerator::MeterSchema();
  std::vector<Row> rows = generator.MakeAllRows();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParquetEncode(schema, rows));
  }
}
BENCHMARK(BM_ParquetEncode);

void BM_ParquetDecodePruned(benchmark::State& state) {
  GridPocketGenerator generator({.num_meters = 50,
                                 .readings_per_meter = 200,
                                 .seed = 1});
  Schema schema = GridPocketGenerator::MeterSchema();
  auto encoded = ParquetEncode(schema, generator.MakeAllRows());
  std::vector<std::string> projection = {"vid", "index"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParquetDecodeBatch(*encoded, projection));
  }
}
BENCHMARK(BM_ParquetDecodePruned);

void BM_SqlParse(benchmark::State& state) {
  const std::string& sql = GridPocketQueries()[0].sql;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseSql(sql));
  }
}
BENCHMARK(BM_SqlParse);

void BM_SqlPlan(benchmark::State& state) {
  auto stmt = ParseSql(GridPocketQueries()[0].sql);
  Schema schema = GridPocketGenerator::MeterSchema();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PhysicalPlan::Create(*stmt, schema));
  }
}
BENCHMARK(BM_SqlPlan);

// The engine pipeline on the Fig. 5 selectivity workload (CSVStorlet
// with a row-discarding predicate). The peak_buffered_bytes counter shows
// the memory story: the inter-stage queues hold O(chunk_size x
// pipeline_depth), never the object.
void BM_PushdownPipelineStreaming(benchmark::State& state) {
  static std::unique_ptr<ScoopCluster>* cluster = [] {
    auto created = ScoopCluster::Create();
    if (!created.ok()) std::abort();
    return new std::unique_ptr<ScoopCluster>(std::move(created).value());
  }();
  std::string csv = SampleCsv(100000);
  StorletParams params = {
      {"schema", GridPocketGenerator::MeterSchema().ToSpec()},
      {"selection", "(like date \"2015-01-01%\")"}};
  std::vector<StorletInvocation> invocations = {{"csvstorlet", params}};
  StorletEngine& engine = (*cluster)->engine();
  Gauge* gauge = (*cluster)->metrics().GetGauge("storlet.buffered_bytes");
  gauge->Reset();

  for (auto _ : state) {
    auto pipeline = engine.RunPipelineStreaming(
        "acct", "data", invocations,
        std::make_shared<StringByteStream>(csv, engine.chunk_size()));
    if (!pipeline.ok()) {
      state.SkipWithError(pipeline.status().ToString().c_str());
      break;
    }
    auto output = pipeline->output->ReadAll();
    if (!output.ok()) {
      state.SkipWithError(output.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(output->size());
  }
  state.counters["peak_buffered_bytes"] =
      benchmark::Counter(static_cast<double>(gauge->peak()));
  state.counters["object_bytes"] =
      benchmark::Counter(static_cast<double>(csv.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_PushdownPipelineStreaming);

// The one group fold (sql/group_fold.h) on both of its sides, over a
// 512 KiB slice of Table I rows and the ShowMapCons query: arg 0 is the
// storlet's partials fold (GroupAggStorlet over CSV text, selection and
// SAG1 encoding included), arg 1 the driver's (ProcessBatch over decoded
// batches, WHERE included). Reported in rows/s of the slice.
void BM_GroupFold(benchmark::State& state) {
  const bool storlet_side = state.range(0) == 0;
  state.SetLabel(storlet_side ? "storlet" : "driver");
  auto csv = std::make_shared<std::string>(SampleCsv(12000));
  csv->resize(csv->rfind('\n', 512 * 1024) + 1);
  Schema schema = GridPocketGenerator::MeterSchema();
  auto stmt = ParseSql(GridPocketQueries()[0].sql);
  if (!stmt.ok()) {
    state.SkipWithError(stmt.status().ToString().c_str());
    return;
  }
  auto plan = PhysicalPlan::Create(*stmt, schema);
  if (!plan.ok() || (*plan)->agg_pushdown() == nullptr) {
    state.SkipWithError("ShowMapCons has no aggregate pushdown");
    return;
  }
  const PhysicalPlan& p = **plan;
  std::vector<int> indices;
  for (const std::string& name : p.required_columns()) {
    indices.push_back(schema.IndexOf(name));
  }
  std::vector<RecordBatch> batches;
  CsvBatchReader reader(*csv, &schema);
  RecordBatch batch;
  int64_t rows = 0;
  while (reader.Next(&batch)) {
    rows += batch.num_rows();
    batches.push_back(batch.SelectColumns(p.scan_schema(), indices));
  }
  StorletParams params = {{"schema", schema.ToSpec()},
                          {"output", "partials"},
                          {"group", p.agg_pushdown()->GroupParam()},
                          {"aggs", p.agg_pushdown()->AggsParam()},
                          {"selection", p.pushed_filter().Serialize()}};
  std::string output;
  for (auto _ : state) {
    if (storlet_side) {
      GroupAggStorlet storlet;
      SharedBufferByteStream source(csv, *csv);
      StorletInputStream in(&source);
      output.clear();
      StringByteSink sink(&output);
      StorletOutputStream out(&sink);
      StorletLogger logger;
      Status s = storlet.Invoke(in, out, params, logger);
      if (!s.ok()) state.SkipWithError(s.ToString().c_str());
      out.Flush();
      benchmark::DoNotOptimize(output.size());
    } else {
      PartialResult partial;
      for (const RecordBatch& b : batches) {
        p.ProcessBatch(b, /*filters_already_applied=*/false, &partial);
      }
      benchmark::DoNotOptimize(partial.groups.size());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows);
}
BENCHMARK(BM_GroupFold)->Arg(0)->Arg(1);

// Chunk-size ablation over the real end-to-end path: smaller chunks mean
// more tasks, more GETs and more record-alignment overhead (§VII argues
// the HDFS chunk size is not natural for object stores).
void BM_EndToEndChunkSize(benchmark::State& state) {
  static bench::MiniDeployment* deployment = [] {
    return new bench::MiniDeployment(bench::MakeMiniDeployment(20, 1500, 3));
  }();
  CsvSourceOptions options;
  options.chunk_size = static_cast<uint64_t>(state.range(0));
  deployment->session->RegisterCsvTable("benchMeter", "meters", "m",
                                        deployment->schema, true, options);
  for (auto _ : state) {
    auto outcome = deployment->session->Sql(
        "SELECT vid, sum(index) as s FROM benchMeter "
        "WHERE city LIKE 'Rotterdam' GROUP BY vid ORDER BY vid");
    if (!outcome.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(outcome->table.rows.size());
  }
}
BENCHMARK(BM_EndToEndChunkSize)
    ->Arg(8 * 1024)
    ->Arg(64 * 1024)
    ->Arg(512 * 1024)
    ->Arg(4 * 1024 * 1024);

}  // namespace
}  // namespace scoop

BENCHMARK_MAIN();
