// Fig. 5 — query speedup S_Q vs query data selectivity, for row / column /
// mixed selectivity types and the three dataset sizes (50 GB, 500 GB,
// 3 TB). Timing from the calibrated testbed model; a real laptop-scale
// sweep validates the byte-volume behaviour end to end.
//
// Pass --stage=proxy to re-run the model sweep with the pushdown filters
// staged at the Swift proxies instead of the object nodes (the §V-A
// staging ablation — strictly worse, which is why Scoop defaults to
// object-node execution).
#include <cstdio>
#include <cstring>
#include <iterator>

#include "bench/bench_util.h"
#include "simnet/simulator.h"

namespace scoop {
namespace {

void ModelSweep(bool proxy_stage) {
  ClusterSimulator sim;
  std::printf(
      "Fig. 5 (model): S_Q vs data selectivity%s\n\n",
      proxy_stage ? " [ABLATION: filters staged at proxies]" : "");
  for (SelectivityType type :
       {SelectivityType::kRow, SelectivityType::kColumn,
        SelectivityType::kMixed}) {
    std::printf("-- %s selectivity --\n",
                std::string(SelectivityTypeName(type)).c_str());
    bench::TablePrinter table(
        {"selectivity", "S_Q 50GB", "S_Q 500GB", "S_Q 3TB"});
    for (double sel : {0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95}) {
      std::vector<std::string> row = {StrFormat("%3.0f%%", sel * 100)};
      for (double gb : {50.0, 500.0, 3000.0}) {
        SimQuery plain;
        plain.mode = SimMode::kPlain;
        plain.dataset_bytes = gb * 1e9;
        SimQuery scoop;
        scoop.mode = SimMode::kScoop;
        scoop.dataset_bytes = gb * 1e9;
        scoop.data_selectivity = sel;
        scoop.selectivity_type = type;
        scoop.filter_at_proxy = proxy_stage;
        double speedup = sim.Simulate(plain).total_seconds /
                         sim.Simulate(scoop).total_seconds;
        row.push_back(StrFormat("%6.2f", speedup));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Paper anchors: S~1 at 0%% (<=3.4%% penalty), ~5x at 80%%, >10x at\n"
      "90%% (500GB/3TB), row > mixed > column, larger datasets faster.\n\n");
}

void RealSweep() {
  std::printf(
      "Fig. 5 (real end-to-end, laptop scale): controlled-selectivity\n"
      "queries; bytes over the wire and wall-clock, pushdown vs plain\n\n");
  bench::MiniDeployment d = bench::MakeMiniDeployment(40, 3000, 4);
  struct SyntheticQuery {
    const char* label;
    const char* pushdown_sql;
    const char* plain_sql;
  };
  // Row selectivity via date prefixes (~3%..97% of a 21-day dataset),
  // column selectivity via projection width; mixed via both.
  const SyntheticQuery kQueries[] = {
      {"sel~0% (full scan)", "SELECT * FROM largeMeter",
       "SELECT * FROM plainMeter"},
      {"row ~50%",
       "SELECT * FROM largeMeter WHERE date LIKE '2015-01-0%'",
       "SELECT * FROM plainMeter WHERE date LIKE '2015-01-0%'"},
      {"row ~95%",
       "SELECT * FROM largeMeter WHERE date LIKE '2015-01-01%'",
       "SELECT * FROM plainMeter WHERE date LIKE '2015-01-01%'"},
      {"column (2/10 cols)",
       "SELECT vid, index FROM largeMeter",
       "SELECT vid, index FROM plainMeter"},
      {"mixed (2 cols, 1 day)",
       "SELECT vid, index FROM largeMeter WHERE date LIKE '2015-01-01%'",
       "SELECT vid, index FROM plainMeter WHERE date LIKE '2015-01-01%'"},
  };
  bench::TablePrinter table({"query", "data sel", "ingest scoop",
                             "ingest plain", "wall S_Q", "rows"});
  double full_scan_speedup = 0;
  double plain_overread_ratio = 0;
  for (const SyntheticQuery& q : kQueries) {
    auto scoop_run = d.session->Sql(q.pushdown_sql);
    auto plain_run = d.session->Sql(q.plain_sql);
    if (!scoop_run.ok() || !plain_run.ok()) {
      std::fprintf(stderr, "query failed\n");
      return;
    }
    double speedup = plain_run->stats.wall_seconds /
                     std::max(1e-9, scoop_run->stats.wall_seconds);
    if (&q == &kQueries[0]) {
      full_scan_speedup = speedup;
      // Bytes the plain arm moved per byte at rest: above 1 only by what
      // record alignment reads past each partition's edges.
      const JobStats& plain = plain_run->stats;
      uint64_t at_rest = std::max<uint64_t>(1, plain.raw_bytes);
      plain_overread_ratio = static_cast<double>(plain.bytes_ingested) /
                             static_cast<double>(at_rest);
    }
    table.AddRow(
        {q.label,
         StrFormat("%5.1f%%", scoop_run->stats.DataSelectivity() * 100),
         FormatBytes(static_cast<double>(scoop_run->stats.bytes_ingested)),
         FormatBytes(static_cast<double>(plain_run->stats.bytes_ingested)),
         StrFormat("%5.2f", speedup),
         std::to_string(scoop_run->stats.rows_output)});
  }
  table.Print();
  std::printf("\n");

  // Rerun one pushdown query with the trace collector on so the span
  // tree (stocator -> proxy -> object server -> storlet stages) ships as
  // a CI artifact next to the metrics.
  d.cluster->traces().Enable();
  // Only the recorded span tree matters here; the query result was
  // already validated by the timed sweep above.
  d.session->Sql(kQueries[1].pushdown_sql).status().IgnoreError();
  bench::EmitTraceJson("fig5_selectivity_speedup", d.cluster->traces());
  d.cluster->traces().Disable();

  bench::EmitBenchJson(
      "fig5_selectivity_speedup", d.cluster->metrics(),
      {{"queries", static_cast<double>(std::size(kQueries))},
       {"full_scan_speedup", full_scan_speedup},
       {"plain_overread_ratio", plain_overread_ratio}});
}

}  // namespace
}  // namespace scoop

int main(int argc, char** argv) {
  bool proxy_stage = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stage=proxy") == 0) proxy_stage = true;
  }
  scoop::ModelSweep(proxy_stage);
  if (!proxy_stage) scoop::RealSweep();
  return 0;
}
