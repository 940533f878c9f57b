#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common/strings.h"
#include "csv/batch_reader.h"
#include "oracle.h"
#include "probes.h"
#include "samples.h"
#include "scoop/scoop.h"
#include "scoop/tcp_fabric.h"
#include "sql/catalyst.h"
#include "sql/parser.h"
#include "storlets/headers.h"
#include "workload/generator.h"
#include "workload/queries.h"

namespace perfbench {

using scoop::ClientTransportFn;
using scoop::GeneratorConfig;
using scoop::GridPocketGenerator;
using scoop::HttpMethod;
using scoop::HttpResponse;
using scoop::Request;
using scoop::Result;
using scoop::ScoopCluster;
using scoop::ScoopSession;
using scoop::Status;
using scoop::SwiftClient;
using scoop::TcpFabric;

namespace {

constexpr int kObjects = 8;
constexpr int kSessionWorkers = 4;
constexpr int kReplaySamples = 24;
// Set-ups per run; setup_s is their median. Their uploads are also the PUT
// samples of the workloads without re-uploads, hence four for Table I. A
// tenant set-up takes tens of milliseconds, so it repeats more often.
constexpr int kTable1Setups = 4;
constexpr int kDashboardSetups = 3;
constexpr int kTenantSetups = 9;
constexpr int kRateWindows = 5;
// Untimed re-uploads before the dashboard's measured phase.
constexpr int kWarmInPuts = 8;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double MbPerS(double bytes, int64_t ns) {
  return ns > 0 ? bytes / 1e6 / (static_cast<double>(ns) / 1e9) : 0.0;
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMib() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}
// The CSV bytes GridPocketGenerator::Upload stores as object `k` of
// `objects` — reproduced so re-uploads are bit-identical and replays can
// read raw partitions without a GET.
std::string ObjectCsv(const GeneratorConfig& config, int objects, int k) {
  GridPocketGenerator generator(config);
  int64_t total = generator.TotalRows();
  int64_t per_object = (total + objects - 1) / objects;
  int64_t first = static_cast<int64_t>(k) * per_object;
  std::string data;
  if (first < total) {
    generator.AppendCsv(first, std::min(per_object, total - first), &data);
  }
  return data;
}

std::string ObjectName(int k) { return scoop::StrFormat("m%04d.csv", k); }

// A transport straight to the in-process cluster front door.
ClientTransportFn InProcess(ScoopCluster* cluster) {
  scoop::SwiftCluster* swift = &cluster->swift();
  return [swift](Request request) { return swift->Handle(std::move(request)); };
}

ClientTransportFn OverTcp(TcpFabric* fabric) {
  return [fabric](Request request) { return fabric->Handle(std::move(request)); };
}

// Sends a request and drains its body.
void SendDrained(const ClientTransportFn& transport, Request request) {
  transport(std::move(request)).Materialize();
}

// --- Layer replays ----------------------------------------------------------
// Each replays sampled inputs through one module's public entry point, in
// isolation, after the traced phase.

struct StorletReplay {
  double isolated_mb_s = 0.0;
  double out_in_ratio = 0.0;
};

// Re-runs the sampled pushdown GETs' storlet pipelines on the raw bytes
// their (record-aligned) ranges cover. `raw_object` maps an object path to
// its stored bytes.
StorletReplay ReplayStorlets(
    ScoopCluster* cluster, const std::vector<RequestRecord>& requests,
    const std::function<const std::string*(const std::string&)>& raw_object) {
  StorletReplay out;
  double in_bytes = 0.0;
  double out_bytes = 0.0;
  int64_t ns = 0;
  for (const RequestRecord& record : requests) {
    if (!record.request || !record.pushdown) continue;
    const Request& request = *record.request;
    const std::string* object = raw_object(request.path);
    if (object == nullptr) continue;
    std::string_view data(*object);
    auto range = request.headers.Get("Range");
    if (range) {
      auto parsed = scoop::ByteRange::Parse(*range, object->size());
      if (!parsed.ok()) continue;
      // Record alignment as the store does it: skip the partial first
      // record (unless at byte 0), complete the last one.
      size_t start = 0;
      if (parsed->first > 0) {
        start = object->find('\n', parsed->first);
        start = start == std::string::npos ? object->size() : start + 1;
      }
      size_t end = object->find('\n', parsed->last);
      end = end == std::string::npos ? object->size() : end + 1;
      if (start >= end) continue;
      data = data.substr(start, end - start);
    }
    auto invocations = scoop::StorletEngine::ParseInvocations(request.headers);
    auto path = scoop::ObjectPath::Parse(request.path);
    if (!invocations.ok() || !path.ok()) continue;
    for (int rep = 0; rep < 3; ++rep) {
      int64_t t0 = NowNs();
      auto result = cluster->engine().RunPipeline(path->account, path->container,
                                                  *invocations, data);
      ns += NowNs() - t0;
      if (!result.ok()) break;
      in_bytes += static_cast<double>(data.size());
      out_bytes += static_cast<double>(result->output.size());
    }
  }
  out.isolated_mb_s = MbPerS(in_bytes, ns);
  out.out_in_ratio = Ratio(out_bytes, in_bytes);
  return out;
}

// The ETL storlet (the PUT-path filter) over the first MiB of an object.
double ReplayEtl(ScoopCluster* cluster, const std::string& object_csv,
                 const std::string& account) {
  scoop::Headers headers;
  headers.Set(scoop::kRunStorletHeader, "etlstorlet");
  headers.Set(std::string(scoop::kStorletParamPrefix) + "Schema",
              GridPocketGenerator::MeterSchema().ToSpec());
  auto invocations = scoop::StorletEngine::ParseInvocations(headers);
  if (!invocations.ok()) return 0.0;
  std::string_view data(object_csv);
  data = data.substr(0, std::min<size_t>(data.size(), 1 << 20));
  int64_t ns = 0;
  double bytes = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    int64_t t0 = NowNs();
    auto result =
        cluster->engine().RunPipeline(account, "meters", *invocations, data);
    ns += NowNs() - t0;
    if (!result.ok()) return 0.0;
    bytes += static_cast<double>(data.size());
  }
  return MbPerS(bytes, ns);
}

// CsvBatchReader decoding raw, record-aligned slices of `chunk` bytes.
double ReplayCsvDecode(const std::string& object_csv, uint64_t chunk) {
  scoop::Schema schema = GridPocketGenerator::MeterSchema();
  int64_t ns = 0;
  double bytes = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    size_t pos = 0;
    while (pos < object_csv.size()) {
      size_t end = object_csv.find('\n', std::min(object_csv.size() - 1,
                                                   pos + chunk));
      end = end == std::string::npos ? object_csv.size() : end + 1;
      std::string_view slice(object_csv.data() + pos, end - pos);
      int64_t t0 = NowNs();
      scoop::CsvBatchReader reader(slice, &schema);
      scoop::RecordBatch batch;
      int64_t rows = 0;
      while (reader.Next(&batch)) rows += batch.num_rows();
      ns += NowNs() - t0;
      if (rows == 0) return 0.0;
      bytes += static_cast<double>(slice.size());
      pos = end;
    }
  }
  return MbPerS(bytes, ns);
}

// ParseSql + ExtractPushdown on each query text.
double ReplayPlanUs(const std::vector<std::string>& queries) {
  scoop::Schema schema = GridPocketGenerator::MeterSchema();
  std::vector<double> us;
  for (int rep = 0; rep < 10; ++rep) {
    for (const std::string& sql : queries) {
      int64_t t0 = NowNs();
      auto stmt = scoop::ParseSql(sql);
      if (stmt.ok()) {
        auto extraction = scoop::ExtractPushdown(*stmt, schema);
        if (!extraction.ok()) continue;
      }
      us.push_back(Us(NowNs() - t0));
    }
  }
  return Percentile(us, 0.5);
}

// The sampled requests sent over loopback TCP and in-process, alternating
// order; the per-request difference of the means, median over requests.
// Starts a fabric on `cluster` when `fabric` is null.
double ReplayNetOverheadUs(ScoopCluster* cluster, TcpFabric* fabric,
                           const std::vector<RequestRecord>& requests) {
  std::unique_ptr<TcpFabric> own;
  if (fabric == nullptr) {
    auto started = TcpFabric::Start(cluster);
    if (!started.ok()) return 0.0;
    own = std::move(started).value();
    fabric = own.get();
  }
  ClientTransportFn local = InProcess(cluster);
  ClientTransportFn tcp = OverTcp(fabric);
  std::vector<double> diffs;
  for (const RequestRecord& record : requests) {
    if (!record.request) continue;
    SendDrained(local, *record.request);  // warm
    int64_t local_ns = 0;
    int64_t tcp_ns = 0;
    for (int rep = 0; rep < 2; ++rep) {
      const ClientTransportFn& first = rep == 0 ? local : tcp;
      const ClientTransportFn& second = rep == 0 ? tcp : local;
      int64_t t0 = NowNs();
      SendDrained(first, *record.request);
      int64_t t1 = NowNs();
      SendDrained(second, *record.request);
      int64_t t2 = NowNs();
      (rep == 0 ? local_ns : tcp_ns) += t1 - t0;
      (rep == 0 ? tcp_ns : local_ns) += t2 - t1;
    }
    diffs.push_back(Us(tcp_ns - local_ns) / 2.0);
  }
  return Percentile(diffs, 0.5);
}

// --- Transport-level layer metrics shared by all workloads -------------------

struct TransportLayers {
  std::vector<double> pushdown_ms, raw_ms, first_byte_ms, put_ms;
  std::vector<double> hit_ms, miss_ms;
  double raw_bytes = 0.0;
  int64_t raw_ns = 0;
  double covered_bytes = 0.0;  // raw bytes under executed pushdown GETs
  int64_t drain_ns = 0;
  int64_t object_gets = 0, lists = 0, pushdown_gets = 0, hits = 0;
};

// `covered` gives the raw bytes an executed pushdown GET ran over.
TransportLayers SummarizeTransport(
    const std::vector<RequestRecord>& requests,
    const std::function<uint64_t(const RequestRecord&)>& covered) {
  TransportLayers t;
  for (const RequestRecord& r : requests) {
    int64_t span = r.end_ns - r.start_ns;
    if (r.method == HttpMethod::kPut) {
      if (r.object) t.put_ms.push_back(Ms(span));
      continue;
    }
    if (r.method != HttpMethod::kGet) continue;
    if (!r.object) {
      ++t.lists;
      continue;
    }
    ++t.object_gets;
    if (r.first_byte_ns > 0) t.first_byte_ms.push_back(Ms(r.first_byte_ns - r.start_ns));
    if (r.pushdown) {
      ++t.pushdown_gets;
      t.pushdown_ms.push_back(Ms(span));
      if (r.cache_hit) {
        ++t.hits;
        t.hit_ms.push_back(Ms(span));
      } else {
        t.miss_ms.push_back(Ms(span));
        if (r.storlet_executed) {
          t.covered_bytes += static_cast<double>(covered(r));
          t.drain_ns += span;
        }
      }
    } else {
      t.raw_ms.push_back(Ms(span));
      t.raw_bytes += static_cast<double>(r.body_bytes);
      t.raw_ns += span;
    }
  }
  return t;
}

void AddTransportLayers(const TransportLayers& t, double ops,
                        const std::vector<double>& setup_put_ms, Report* report) {
  report->Layer("objectstore.pushdown_get_ms_p50", Percentile(t.pushdown_ms, 0.5), "ms");
  report->Layer("objectstore.pushdown_get_ms_p95", Percentile(t.pushdown_ms, 0.95), "ms");
  report->Layer("objectstore.raw_get_ms_p50", Percentile(t.raw_ms, 0.5), "ms");
  report->Layer("objectstore.raw_get_ms_p95", Percentile(t.raw_ms, 0.95), "ms");
  report->Layer("objectstore.first_byte_ms_p50", Percentile(t.first_byte_ms, 0.5), "ms");
  report->Layer("objectstore.raw_get_mb_s", MbPerS(t.raw_bytes, t.raw_ns), "MB/s");
  report->Layer("objectstore.put_ms_p50",
                Percentile(t.put_ms.empty() ? setup_put_ms : t.put_ms, 0.5), "ms");
  report->Layer("objectstore.gets_per_query",
                Ratio(static_cast<double>(t.object_gets), ops), "count");
  report->Layer("objectstore.lists_per_query",
                Ratio(static_cast<double>(t.lists), ops), "count");
  report->Layer("cache.hit_ratio",
                Ratio(static_cast<double>(t.hits), static_cast<double>(t.pushdown_gets)),
                "fraction");
  report->Layer("cache.hit_ms_p50", Percentile(t.hit_ms, 0.5), "ms");
  report->Layer("cache.miss_ms_p50", Percentile(t.miss_ms, 0.5), "ms");
}

void AddReplayLayers(ScoopCluster* cluster, TcpFabric* fabric,
                     const TransportLayers& t,
                     const std::vector<RequestRecord>& requests,
                     const std::function<const std::string*(const std::string&)>& raw_object,
                     const std::string& sample_object, const std::string& account,
                     uint64_t chunk, Report* report) {
  double incluster = MbPerS(t.covered_bytes, t.drain_ns);
  StorletReplay storlets = ReplayStorlets(cluster, requests, raw_object);
  report->Layer("storlets.incluster_mb_s", incluster, "MB/s");
  report->Layer("storlets.isolated_mb_s", storlets.isolated_mb_s, "MB/s");
  report->Layer("storlets.gap_ratio", Ratio(storlets.isolated_mb_s, incluster), "ratio");
  report->Layer("storlets.out_in_ratio", storlets.out_in_ratio, "ratio");
  report->Layer("storlets.etl_mb_s", ReplayEtl(cluster, sample_object, account), "MB/s");
  report->Layer("csv.decode_mb_s", ReplayCsvDecode(sample_object, chunk), "MB/s");
  report->Layer("net.overhead_us_p50", ReplayNetOverheadUs(cluster, fabric, requests), "us");
}

void AddQosLayers(double admitted, double degraded, double shed, double gold_shed,
                  double backoff_ms, Report* report) {
  report->Layer("qos.bronze_admitted_frac", admitted, "fraction");
  report->Layer("qos.bronze_degraded_frac", degraded, "fraction");
  report->Layer("qos.bronze_shed_frac", shed, "fraction");
  report->Layer("qos.gold_shed_frac", gold_shed, "fraction");
  report->Layer("qos.client_backoff_ms_p50", backoff_ms, "ms");
}

// =============================================================================
// Closed-loop SQL workloads: table1_pushdown, table1_plain, dashboard_rw.

struct SqlSpec {
  int meters = 30;
  int readings = 60 * 144;
  uint64_t chunk = 512 * 1024;
  bool pushdown = true;
  bool cache = false;
  bool tcp = false;
  bool etl_upload = false;
  // Every put_every-th operation re-uploads an object (0: never). A fixed
  // period rather than a coin flip keeps the share at exactly 1/put_every,
  // so cache invalidations do not vary from run to run.
  int put_every = 0;
  bool dashboard = false;  // query pool: RepeatedQueryMix vs Table I
  int setups = kTable1Setups;
};

SqlSpec SpecFor(const std::string& name) {
  SqlSpec spec;
  if (name == "table1_plain") spec.pushdown = false;
  if (name == "dashboard_rw") {
    spec.meters = 4;
    spec.readings = 365 * 144;
    spec.chunk = 256 * 1024;
    spec.cache = true;
    spec.tcp = true;
    spec.etl_upload = true;
    spec.put_every = 20;
    spec.dashboard = true;
    spec.setups = kDashboardSetups;
  }
  return spec;
}

struct SqlDeployment {
  std::unique_ptr<ScoopCluster> cluster;
  std::unique_ptr<TcpFabric> fabric;
  std::unique_ptr<ScoopSession> session;

  // The session and the fabric reach into the cluster: release them first
  // (member-wise move assignment would drop the cluster first).
  void Reset() {
    session.reset();
    fabric.reset();
    cluster.reset();
  }
};

scoop::CsvSourceOptions SourceOptions(const SqlSpec& spec) {
  scoop::CsvSourceOptions options;
  options.chunk_size = spec.chunk;
  options.pushdown_enabled = spec.pushdown;
  return options;
}

Result<SqlDeployment> BuildSql(const SqlSpec& spec, const GeneratorConfig& gen,
                               TransportProbe* probe,
                               const std::vector<std::string>& warmup,
                               double* upload_s) {
  SqlDeployment d;
  scoop::ResultCacheConfig cache;
  cache.enabled = spec.cache;
  auto cluster = ScoopCluster::Create(scoop::SwiftConfig(), cache);
  if (!cluster.ok()) return cluster.status();
  d.cluster = std::move(cluster).value();
  ClientTransportFn base = InProcess(d.cluster.get());
  if (spec.tcp) {
    auto fabric = TcpFabric::Start(d.cluster.get());
    if (!fabric.ok()) return fabric.status();
    d.fabric = std::move(fabric).value();
    base = OverTcp(d.fabric.get());
  }
  auto client = SwiftClient::ConnectVia(probe->Wrap(std::move(base)),
                                        d.cluster->swift().auth(), "gridpocket",
                                        "secret", "gp");
  if (!client.ok()) return client.status();
  d.session = std::make_unique<ScoopSession>(
      d.cluster.get(), std::move(client).value(), kSessionWorkers);
  int64_t t0 = NowNs();
  Status up = GridPocketGenerator(gen).Upload(&d.session->client(), "meters",
                                              "m", kObjects, spec.etl_upload);
  *upload_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (!up.ok()) return up;
  d.session->RegisterCsvTable("largeMeter", "meters", "m",
                              GridPocketGenerator::MeterSchema(),
                              spec.pushdown, SourceOptions(spec));
  for (const std::string& sql : warmup) {
    auto outcome = d.session->Sql(sql);
    if (!outcome.ok()) return outcome.status();
  }
  return d;
}

// The seeded operation stream: Table I round-robin in a seeded order, or
// the dashboard's zipf query mix with seeded re-uploads.
//
// The dashboard draws RepeatedQueryMix's 84 variants with its zipf(0.99)
// popularity, stratified: every block of kMixBlock queries holds each
// variant its zipf share of times (cumulative rounding, so the tail still
// appears), in a seeded order. Independent draws would make the mix of
// cheap aggregate and costly select-only variants, and with it every cost
// per query, vary from seed to seed.
class SqlSchedule {
 public:
  struct Op {
    bool put = false;
    int index = 0;  // query pool index, or object to re-upload
  };

  SqlSchedule(const SqlSpec& spec, uint64_t seed)
      : spec_(spec), rng_(seed ^ 0x5CA1AB1Eull) {
    if (spec.dashboard) {
      scoop::QueryMixConfig config;
      config.seed = seed;
      config.zipf_exponent = 0.99;
      config.distinct_queries = 84;
      scoop::RepeatedQueryMix mix(config);
      double total = 0.0;
      for (size_t rank = 0; rank < mix.variants().size(); ++rank) {
        pool_.push_back(mix.variants()[rank].sql);
        mass_.push_back(1.0 / std::pow(static_cast<double>(rank + 1),
                                       config.zipf_exponent));
        total += mass_.back();
      }
      for (double& m : mass_) m /= total;
    } else {
      for (const scoop::GridPocketQuery& q : scoop::GridPocketQueries()) {
        pool_.push_back(q.sql);
      }
      for (size_t i = 0; i < pool_.size(); ++i) order_.push_back(static_cast<int>(i));
      for (size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.NextBounded(i)]);
      }
    }
  }

  const std::vector<std::string>& pool() const { return pool_; }

  Op Next() {
    Op op;
    if (!spec_.dashboard) {
      op.index = order_[next_++ % order_.size()];
      return op;
    }
    if (spec_.put_every > 0 && ++next_ % spec_.put_every == 0) {
      op.put = true;
      op.index = static_cast<int>(rng_.NextBounded(kObjects));
      return op;
    }
    if (block_.empty()) NextBlock();
    op.index = block_.back();
    block_.pop_back();
    return op;
  }

 private:
  static constexpr int kMixBlock = 168;

  void NextBlock() {
    ++blocks_;
    for (size_t rank = 0; rank < mass_.size(); ++rank) {
      double share = kMixBlock * mass_[rank];
      int count = static_cast<int>(std::lround(share * blocks_) -
                                   std::lround(share * (blocks_ - 1)));
      block_.insert(block_.end(), static_cast<size_t>(count), static_cast<int>(rank));
    }
    for (size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.NextBounded(i)]);
    }
  }

  SqlSpec spec_;
  scoop::Rng rng_;
  std::vector<std::string> pool_;
  std::vector<double> mass_;  // dashboard: zipf share of each variant
  std::vector<int> block_;    // dashboard: the current block, drawn from the back
  int64_t blocks_ = 0;
  std::vector<int> order_;
  size_t next_ = 0;
};

struct QueryRun {
  int op = -1;
  int pool = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  scoop::ResultTable table;
  uint64_t bytes_ingested = 0;
  int requests = 0;
};

struct SqlPhase {
  std::vector<QueryRun> queries;
  std::vector<double> put_ms;
  std::vector<double> lag_ms;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

// Runs the schedule for `seconds`, or for `max_ops` operations when that
// is positive.
SqlPhase RunSqlPhase(SqlDeployment& d, SqlSchedule& schedule, double seconds,
                     int max_ops, const std::vector<std::string>& object_csv,
                     RelationProbe* relation, int first_op) {
  SqlPhase phase;
  scoop::Headers etl;
  etl.Set(scoop::kRunStorletHeader, "etlstorlet");
  etl.Set(std::string(scoop::kStorletParamPrefix) + "Schema",
          GridPocketGenerator::MeterSchema().ToSpec());
  phase.start_ns = NowNs();
  int64_t deadline = phase.start_ns + static_cast<int64_t>(seconds * 1e9);
  int64_t previous_end = phase.start_ns;
  int op_id = first_op;
  while (max_ops > 0 ? op_id - first_op < max_ops : NowNs() < deadline) {
    SqlSchedule::Op op = schedule.Next();
    SetCurrentOp(op_id);
    ++phase.attempted;
    if (op.put) {
      std::string data = object_csv[static_cast<size_t>(op.index)];
      int64_t t0 = NowNs();
      phase.lag_ms.push_back(Ms(t0 - previous_end));
      Status st = d.session->client().PutObject("meters", ObjectName(op.index),
                                                std::move(data), etl);
      previous_end = NowNs();
      phase.put_ms.push_back(Ms(previous_end - t0));
      if (!st.ok()) {
        ++phase.failed;
        phase.errors.push_back("re-upload: " + st.ToString());
      }
    } else {
      if (relation != nullptr) relation->set_query(op_id);
      QueryRun run;
      run.op = op_id;
      run.pool = op.index;
      run.start_ns = NowNs();
      phase.lag_ms.push_back(Ms(run.start_ns - previous_end));
      auto outcome = d.session->Sql(schedule.pool()[static_cast<size_t>(op.index)]);
      run.end_ns = NowNs();
      previous_end = run.end_ns;
      if (!outcome.ok()) {
        ++phase.failed;
        phase.errors.push_back("query: " + outcome.status().ToString());
      } else {
        run.bytes_ingested = outcome->stats.bytes_ingested;
        run.requests = outcome->stats.requests;
        run.table = std::move(outcome->table);
        phase.queries.push_back(std::move(run));
      }
    }
    ++op_id;
  }
  SetCurrentOp(-1);
  phase.end_ns = previous_end;
  return phase;
}

// Checks every query result of `phase` against the references.
void VerifySqlPhase(SqlPhase* phase, const std::vector<std::string>& refs) {
  for (const QueryRun& run : phase->queries) {
    if (!CsvAlmostEqual(run.table.ToCsv(), refs[static_cast<size_t>(run.pool)])) {
      ++phase->failed;
      phase->errors.push_back(scoop::StrFormat("wrong result for query %d", run.pool));
    }
  }
}

double QueriesPerSecond(const SqlPhase& phase) {
  return Ratio(static_cast<double>(phase.queries.size()),
               static_cast<double>(phase.end_ns - phase.start_ns) / 1e9);
}

// Median over `windows` equal slices of the phase of each slice's query
// rate (queries credited to the slice they end in): a short stall or
// burst elsewhere on the machine moves one slice, not the figure.
double WindowedQueriesPerSecond(const SqlPhase& phase, int windows) {
  double span = static_cast<double>(phase.end_ns - phase.start_ns);
  std::vector<double> counts(static_cast<size_t>(windows), 0.0);
  for (const QueryRun& q : phase.queries) {
    double at = static_cast<double>(q.end_ns - phase.start_ns) / span;
    size_t w = std::min(static_cast<size_t>(at * windows), counts.size() - 1);
    counts[w] += 1.0;
  }
  for (double& c : counts) c /= span / 1e9 / windows;
  return Percentile(counts, 0.5);
}

void AddSqlLayers(const SqlSpec& spec, const SqlPhase& phase,
                  const RelationProbe& relation,
                  const std::vector<RequestRecord>& requests,
                  const std::vector<std::string>& pool, Report* report) {
  std::vector<ScanRecord> scans = relation.scans();
  std::vector<PartitionsRecord> calls = relation.partition_calls();
  std::map<int, std::vector<const ScanRecord*>> scans_by_query;
  for (const ScanRecord& s : scans) scans_by_query[s.query].push_back(&s);
  std::map<int, std::vector<Interval>> calls_by_query;
  std::vector<double> partitions_ms;
  for (const PartitionsRecord& c : calls) {
    calls_by_query[c.query].push_back({c.start_ns, c.end_ns});
    partitions_ms.push_back(Ms(c.end_ns - c.start_ns));
  }
  std::map<int, std::vector<Interval>> gets_by_scan;
  uint64_t scan_body_bytes = 0;
  int64_t scan_gets = 0;
  for (const RequestRecord& r : requests) {
    if (r.scan < 0 || r.method != HttpMethod::kGet) continue;
    gets_by_scan[r.scan].push_back({r.start_ns, r.end_ns});
    scan_body_bytes += r.body_bytes;
    ++scan_gets;
  }

  std::vector<double> launch_ms, merge_ms, self_ms;
  int64_t scan_busy_ns = 0;
  int64_t scan_union_ns = 0;
  uint64_t job_bytes = 0;
  int64_t job_requests = 0;
  for (const QueryRun& q : phase.queries) {
    job_bytes += q.bytes_ingested;
    job_requests += q.requests;
    std::vector<Interval> children = calls_by_query[q.op];
    std::vector<Interval> scan_intervals;
    int64_t first_start = q.end_ns;
    int64_t last_end = q.start_ns;
    for (const ScanRecord* s : scans_by_query[q.op]) {
      scan_intervals.push_back({s->start_ns, s->end_ns});
      first_start = std::min(first_start, s->start_ns);
      last_end = std::max(last_end, s->end_ns);
      scan_busy_ns += s->end_ns - s->start_ns;
    }
    scan_union_ns += UnionLength(scan_intervals);
    children.insert(children.end(), scan_intervals.begin(), scan_intervals.end());
    if (!scan_intervals.empty()) {
      launch_ms.push_back(Ms(first_start - q.start_ns));
      merge_ms.push_back(Ms(q.end_ns - last_end));
    }
    self_ms.push_back(Ms(SelfTime({q.start_ns, q.end_ns}, children)));
  }
  report->Layer("compute.launch_ms_p50", Percentile(launch_ms, 0.5), "ms");
  report->Layer("compute.merge_ms_p50", Percentile(merge_ms, 0.5), "ms");
  report->Layer("compute.self_ms_p50", Percentile(self_ms, 0.5), "ms");
  report->Layer("compute.scan_concurrency",
                Ratio(static_cast<double>(scan_busy_ns),
                      static_cast<double>(scan_union_ns)),
                "ratio");
  report->Layer("sql.plan_us_p50", ReplayPlanUs(pool), "us");

  std::vector<double> scan_ms, scan_self_ms;
  int64_t self_total_ns = 0;
  double decoded_bytes = 0.0;
  double raw_arm_bytes = 0.0;
  double raw_arm_covered = 0.0;
  int64_t fallbacks = 0;
  for (const ScanRecord& s : scans) {
    if (!s.ok) continue;
    int64_t self = SelfTime({s.start_ns, s.end_ns}, gets_by_scan[s.id]);
    scan_ms.push_back(Ms(s.end_ns - s.start_ns));
    scan_self_ms.push_back(Ms(self));
    self_total_ns += self;
    decoded_bytes += static_cast<double>(s.bytes_transferred);
    bool raw_arm = !s.filter_applied && !s.agg_applied;
    if (raw_arm) {
      raw_arm_bytes += static_cast<double>(s.bytes_transferred);
      raw_arm_covered += static_cast<double>(s.raw_bytes);
      if (spec.pushdown) ++fallbacks;
    }
  }
  report->Layer("datasource.partitions_ms_p50", Percentile(partitions_ms, 0.5), "ms");
  report->Layer("datasource.scan_ms_p50", Percentile(scan_ms, 0.5), "ms");
  report->Layer("datasource.scan_ms_p95", Percentile(scan_ms, 0.95), "ms");
  report->Layer("datasource.self_ms_p50", Percentile(scan_self_ms, 0.5), "ms");
  report->Layer("datasource.decode_mb_s", MbPerS(decoded_bytes, self_total_ns), "MB/s");
  report->Layer("datasource.overread_ratio", Ratio(raw_arm_bytes, raw_arm_covered), "ratio");
  report->Layer("datasource.fallback_partitions", static_cast<double>(fallbacks), "count");

  // Accounting cross-check: what the jobs say crossed the link must be
  // what the transport carried for their scans.
  bool bytes_agree = job_bytes == scan_body_bytes;
  bool requests_agree = job_requests == scan_gets;
  report->Layer("crosscheck.job_bytes", static_cast<double>(job_bytes), "B");
  report->Layer("crosscheck.transport_bytes", static_cast<double>(scan_body_bytes), "B");
  report->Layer("crosscheck.job_requests", static_cast<double>(job_requests), "count");
  report->Layer("crosscheck.transport_gets", static_cast<double>(scan_gets), "count");
  if (!bytes_agree || !requests_agree) {
    report->Fail(scoop::StrFormat(
        "accounting drift: JobStats %llu B / %lld GETs, transport %llu B / %lld GETs",
        static_cast<unsigned long long>(job_bytes), static_cast<long long>(job_requests),
        static_cast<unsigned long long>(scan_body_bytes),
        static_cast<long long>(scan_gets)));
  }
}

Result<Report> RunSql(const Options& options) {
  const SqlSpec spec = SpecFor(options.workload);
  GeneratorConfig gen;
  gen.num_meters = spec.meters;
  gen.readings_per_meter = spec.readings;
  gen.seed = options.seed;
  SqlSchedule schedule(spec, options.seed);

  // References first, in a child process, outside setup_s.
  std::vector<std::string> pool = schedule.pool();
  auto refs = RunInChild([&] { return ReferenceResults(gen, pool); });
  if (!refs.ok()) return refs.status();

  std::vector<std::string> object_csv;
  for (int k = 0; k < kObjects; ++k) object_csv.push_back(ObjectCsv(gen, kObjects, k));

  Report report;
  TransportProbe probe(/*full=*/false);
  std::vector<double> setup_s, upload_s;
  SqlDeployment d;
  for (int i = 0; i < spec.setups; ++i) {
    d.Reset();
    int64_t t0 = NowNs();
    double upload = 0.0;
    auto built = BuildSql(spec, gen, &probe, pool, &upload);
    if (!built.ok()) return built.status();
    d = std::move(built).value();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    upload_s.push_back(upload);
  }
  std::vector<double> setup_put_ms;
  for (const RequestRecord& r : probe.Snapshot()) {
    if (r.method == HttpMethod::kPut && r.object) {
      setup_put_ms.push_back(Ms(r.end_ns - r.start_ns));
    }
  }
  probe.Clear();

  // Re-uploads invalidate the warm cache, so the dashboard reaches its
  // steady hit ratio only after a few invalidations: run those untimed.
  if (spec.put_every > 0) {
    SqlPhase warm_in = RunSqlPhase(d, schedule, 0, kWarmInPuts * spec.put_every,
                                   object_csv, nullptr, -(1 << 20));
    VerifySqlPhase(&warm_in, *refs);
    report.attempted += warm_in.attempted;
    report.failed += warm_in.failed;
    for (const std::string& e : warm_in.errors) report.Fail(e);
  }
  SqlPhase phase = RunSqlPhase(d, schedule, options.seconds, 0, object_csv, nullptr, 0);
  VerifySqlPhase(&phase, *refs);
  report.attempted += phase.attempted;
  report.failed += phase.failed;
  for (const std::string& e : phase.errors) report.Fail(e);

  // Costs per query: Table I weighs its templates equally by design, so it
  // averages per-template means, which repeat exactly for a seed however
  // far the round-robin got; the dashboard weighs by the realized mix.
  std::vector<double> query_ms;
  std::map<int, std::pair<double, double>> bytes_by_pool;  // sum, count
  std::map<int, double> requests_by_pool;
  for (const QueryRun& q : phase.queries) {
    query_ms.push_back(Ms(q.end_ns - q.start_ns));
    int key = spec.dashboard ? 0 : q.pool;
    bytes_by_pool[key].first += static_cast<double>(q.bytes_ingested);
    bytes_by_pool[key].second += 1.0;
    requests_by_pool[key] += q.requests;
  }
  double bytes = 0.0;
  double requests = 0.0;
  for (const auto& [key, sum] : bytes_by_pool) {
    bytes += sum.first / sum.second / static_cast<double>(bytes_by_pool.size());
    requests += requests_by_pool[key] / sum.second /
                static_cast<double>(bytes_by_pool.size());
  }
  double n = static_cast<double>(phase.queries.size());
  const std::vector<double>& put_ms = spec.put_every > 0 ? phase.put_ms : setup_put_ms;
  report.Add("setup_s", Percentile(setup_s, 0.5), "s");
  report.Add("queries_per_s", WindowedQueriesPerSecond(phase, kRateWindows), "1/s");
  report.Add("query_ms_p50", Percentile(query_ms, 0.5), "ms");
  report.Add("query_ms_p95", Percentile(query_ms, 0.95), "ms");
  report.Add("ingest_bytes_per_query", bytes, "B");
  report.Add("requests_per_query", requests, "1");
  report.Add("put_ms_p50", Percentile(put_ms, 0.5), "ms");
  report.Add("put_ms_p90", Percentile(put_ms, 0.9), "ms");
  report.Add("queries", n, "count");
  report.Add("puts", static_cast<double>(put_ms.size()), "count");

  if (options.trace) {
    TransportProbe traced(/*full=*/true);
    // Re-route the session's client through a recording probe and the
    // table through the relation probe; same cluster, same cache state.
    ClientTransportFn base = d.fabric ? OverTcp(d.fabric.get()) : InProcess(d.cluster.get());
    auto client = SwiftClient::ConnectVia(traced.Wrap(std::move(base)),
                                          d.cluster->swift().auth(), "gridpocket",
                                          "secret", "gp");
    if (!client.ok()) return client.status();
    auto session = std::make_unique<ScoopSession>(
        d.cluster.get(), std::move(client).value(), kSessionWorkers);
    auto relation = std::make_shared<RelationProbe>(std::make_shared<scoop::CsvDataSource>(
        &session->stocator(), "meters", "m", GridPocketGenerator::MeterSchema(),
        SourceOptions(spec)));
    session->spark().RegisterTable("largeMeter", relation);
    std::swap(d.session, session);
    traced.SampleRequests(kReplaySamples);
    SqlPhase traced_phase = RunSqlPhase(d, schedule, options.seconds, 0, object_csv,
                                        relation.get(), 1 << 20);
    VerifySqlPhase(&traced_phase, *refs);
    report.attempted += traced_phase.attempted;
    report.failed += traced_phase.failed;
    for (const std::string& e : traced_phase.errors) report.Fail(e);
    std::vector<RequestRecord> requests_seen = traced.Snapshot();

    std::vector<double> upload_samples = upload_s;
    report.Layer("workload.upload_s", Percentile(upload_samples, 0.5), "s");
    report.Layer("workload.send_lag_ms_p95", Percentile(traced_phase.lag_ms, 0.95), "ms");
    AddSqlLayers(spec, traced_phase, *relation, requests_seen, pool, &report);
    TransportLayers t = SummarizeTransport(
        requests_seen, [](const RequestRecord& r) { return r.range_bytes; });
    AddTransportLayers(t, static_cast<double>(traced_phase.queries.size()),
                       setup_put_ms, &report);
    std::map<std::string, const std::string*> by_path;
    for (int k = 0; k < kObjects; ++k) {
      by_path["/gp/meters/" + ObjectName(k)] = &object_csv[static_cast<size_t>(k)];
    }
    auto raw_object = [&](const std::string& path) -> const std::string* {
      auto it = by_path.find(path);
      return it == by_path.end() ? nullptr : it->second;
    };
    AddReplayLayers(d.cluster.get(), d.fabric.get(), t, requests_seen, raw_object,
                    object_csv[0], "gp", spec.chunk, &report);
    AddQosLayers(0, 0, 0, 0, 0, &report);
    double untraced = QueriesPerSecond(phase);
    report.Layer("trace.overhead_frac",
                 untraced > 0 ? 1.0 - QueriesPerSecond(traced_phase) / untraced : 0.0,
                 "fraction");
    // Both sessions go before the probe their clients record into.
    d.session.reset();
    session.reset();
  }
  report.Add("peak_rss_mib", PeakRssMib(), "MiB");
  return report;
}

// =============================================================================
// Open-loop two-tenant QoS workload: tenants_qos.

constexpr int kTenantObjects = 3;
constexpr double kGoldRate = 100.0;   // Poisson, well below capacity
constexpr double kBronzeRate = 12.0;  // uniform; above the pushdown bucket
constexpr int kSendersPerTenant = 2;
constexpr int64_t kSpinNs = 200'000;

struct TenantOp {
  int64_t due_ns = 0;  // offset from the schedule start
  int object = 0;
  std::string selection;
};

struct TenantDeployment {
  std::unique_ptr<ScoopCluster> cluster;
  std::unique_ptr<SwiftClient> gold;
  std::unique_ptr<SwiftClient> bronze;

  void Reset() {
    gold.reset();
    bronze.reset();
    cluster.reset();
  }
};

scoop::qos::QosConfig TenantQos() {
  scoop::qos::QosConfig qos;
  qos.enabled = true;
  qos.gold = scoop::qos::QosTierLimits{2000.0, 400.0, 8.0, 64};
  qos.bronze = scoop::qos::QosTierLimits{20.0, 5.0, 1.0, 4};
  qos.storlet_concurrency = 4;
  return qos;
}

Request TenantGet(const std::string& account, int object,
                  const std::string& selection) {
  Request request = Request::Get(
      scoop::StrFormat("/%s/meters/%s", account.c_str(), ObjectName(object).c_str()));
  request.headers.Set(scoop::kRunStorletHeader, "csvstorlet");
  request.headers.Set("X-Storlet-Parameter-Schema",
                      GridPocketGenerator::MeterSchema().ToSpec());
  request.headers.Set("X-Storlet-Parameter-Selection", selection);
  request.headers.Set("X-Storlet-Parameter-Projection", "vid,date,index");
  return request;
}

std::string MonthSelection(const std::string& variant_name) {
  size_t at = variant_name.rfind('@');
  std::string month = at == std::string::npos ? "2015-01" : variant_name.substr(at + 1);
  return "(like date \"" + month + "%\")";
}

Result<TenantDeployment> BuildTenants(const GeneratorConfig& gen,
                                      TransportProbe* gold_probe,
                                      TransportProbe* bronze_probe,
                                      const std::vector<std::string>& warm_selections,
                                      double* upload_s) {
  TenantDeployment d;
  scoop::SwiftConfig config;
  config.part_power = 6;
  scoop::ResultCacheConfig cache;
  cache.enabled = true;
  auto cluster = ScoopCluster::Create(config, cache, TenantQos());
  if (!cluster.ok()) return cluster.status();
  d.cluster = std::move(cluster).value();
  auto& auth = d.cluster->swift().auth();
  auto gold = SwiftClient::ConnectVia(gold_probe->Wrap(InProcess(d.cluster.get())),
                                      auth, "light", "light-key", "lacct");
  auto bronze = SwiftClient::ConnectVia(
      bronze_probe->Wrap(InProcess(d.cluster.get())), auth, "heavy",
      "heavy-key", "hacct");
  if (!gold.ok()) return gold.status();
  if (!bronze.ok()) return bronze.status();
  d.gold = std::make_unique<SwiftClient>(std::move(gold).value());
  d.bronze = std::make_unique<SwiftClient>(std::move(bronze).value());
  Status tier = auth.SetTier("hacct", scoop::TenantTier::kBronze);
  if (!tier.ok()) return tier;
  int64_t t0 = NowNs();
  GridPocketGenerator generator(gen);
  for (SwiftClient* client : {d.gold.get(), d.bronze.get()}) {
    Status up = generator.Upload(client, "meters", "m", kTenantObjects);
    if (!up.ok()) return up;
  }
  *upload_s = static_cast<double>(NowNs() - t0) / 1e9;
  for (const std::string& selection : warm_selections) {
    for (int object = 0; object < kTenantObjects; ++object) {
      HttpResponse r = d.gold->Send(TenantGet("lacct", object, selection));
      r.Materialize();
      if (!r.ok()) return Status::Internal("warm-up GET failed");
    }
  }
  return d;
}

struct TenantSchedules {
  std::vector<TenantOp> gold;
  std::vector<TenantOp> bronze;
};

// Gold: Poisson arrivals, zipf month selections with every 8th a fresh,
// uncacheable one. Bronze: a uniform tick of distinct selections. `salt`
// keeps fresh selections of different phases apart.
TenantSchedules MakeTenantSchedules(uint64_t seed, double seconds, int salt) {
  TenantSchedules s;
  scoop::Rng rng(seed ^ 0x7E4A47ull ^ static_cast<uint64_t>(salt));
  scoop::QueryMixConfig mix_config;
  mix_config.seed = seed + static_cast<uint64_t>(salt);
  mix_config.distinct_queries = 21;
  scoop::RepeatedQueryMix mix(mix_config);
  double t = 0.0;
  for (int i = 0;; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / kGoldRate;
    if (t >= seconds) break;
    TenantOp op;
    op.due_ns = static_cast<int64_t>(t * 1e9);
    op.object = i % kTenantObjects;
    std::string month = MonthSelection(mix.Next().name);
    op.selection = i % 8 == 7 ? scoop::StrFormat("(ge index %d)", salt + i) : month;
    s.gold.push_back(std::move(op));
  }
  int bronze_ops = static_cast<int>(seconds * kBronzeRate);
  for (int i = 0; i < bronze_ops; ++i) {
    TenantOp op;
    op.due_ns = static_cast<int64_t>(static_cast<double>(i) / kBronzeRate * 1e9);
    op.object = i % kTenantObjects;
    op.selection = scoop::StrFormat("(ge index %d)", salt + i);
    s.bronze.push_back(std::move(op));
  }
  return s;
}

struct TenantResult {
  int64_t start_ns = 0;
  int64_t send_ns = 0;
  int64_t end_ns = 0;
  int status = 0;
  bool degraded = false;
  bool correct = false;
  uint64_t body_bytes = 0;
};

struct TenantPhase {
  std::vector<TenantResult> gold;
  std::vector<TenantResult> bronze;
  int64_t start_ns = 0;
};

// Pushdown references (by selection and object) and raw objects.
struct TenantRefs {
  std::map<std::pair<std::string, int>, std::string> pushdown;
  std::vector<std::string> raw;
};

Result<TenantRefs> MakeTenantRefs(ScoopCluster* cluster, const GeneratorConfig& gen,
                                  const std::vector<const TenantSchedules*>& schedules) {
  TenantRefs refs;
  for (int k = 0; k < kTenantObjects; ++k) refs.raw.push_back(ObjectCsv(gen, kTenantObjects, k));
  for (const TenantSchedules* s : schedules) {
    for (const auto* ops : {&s->gold, &s->bronze}) {
      for (const TenantOp& op : *ops) {
        auto key = std::make_pair(op.selection, op.object);
        if (refs.pushdown.count(key)) continue;
        Request request = TenantGet("lacct", op.object, op.selection);
        auto invocations = scoop::StorletEngine::ParseInvocations(request.headers);
        if (!invocations.ok()) return invocations.status();
        auto out = cluster->engine().RunPipeline("lacct", "meters", *invocations,
                                                 refs.raw[static_cast<size_t>(op.object)]);
        if (!out.ok()) return out.status();
        refs.pushdown[key] = std::move(out->output);
      }
    }
  }
  return refs;
}

// Releases each tenant's schedule from its own sender threads; latency is
// clocked from the scheduled arrival through body drain.
TenantPhase RunTenantPhase(TenantDeployment& d, const TenantSchedules& s,
                           const TenantRefs& refs) {
  TenantPhase phase;
  phase.gold.resize(s.gold.size());
  phase.bronze.resize(s.bronze.size());
  phase.start_ns = NowNs() + 20'000'000;  // let every sender reach its wait
  std::atomic<size_t> next_gold{0};
  std::atomic<size_t> next_bronze{0};
  auto sender = [&](SwiftClient* client, const std::string& account,
                    const std::vector<TenantOp>& ops, std::vector<TenantResult>* out,
                    std::atomic<size_t>* next, int op_base) {
    for (;;) {
      size_t i = next->fetch_add(1);
      if (i >= ops.size()) break;
      const TenantOp& op = ops[i];
      TenantResult& result = (*out)[i];
      result.start_ns = phase.start_ns + op.due_ns;
      // Sleep to just short of the due time, then spin: a sleeping thread
      // wakes tens of microseconds late, which would read as latency.
      int64_t now = NowNs();
      if (now < result.start_ns - kSpinNs) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(result.start_ns - kSpinNs - now));
      }
      while (NowNs() < result.start_ns) {
      }
      SetCurrentOp(op_base + static_cast<int>(i));
      result.send_ns = NowNs();
      HttpResponse response = client->Send(TenantGet(account, op.object, op.selection));
      std::string body = response.TakeBody();
      result.end_ns = NowNs();
      result.status = response.status;
      result.body_bytes = body.size();
      if (!response.ok()) continue;
      result.degraded =
          response.headers.GetOr(scoop::kQosDecisionHeader, "") == "degraded" ||
          !response.headers.Has(scoop::kStorletExecutedHeader);
      const std::string& want =
          result.degraded ? refs.raw[static_cast<size_t>(op.object)]
                          : refs.pushdown.at({op.selection, op.object});
      result.correct = body == want;
    }
    SetCurrentOp(-1);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kSendersPerTenant; ++t) {
    threads.emplace_back(sender, d.gold.get(), "lacct", std::cref(s.gold), &phase.gold,
                         &next_gold, 0);
    threads.emplace_back(sender, d.bronze.get(), "hacct", std::cref(s.bronze),
                         &phase.bronze, &next_bronze, 1 << 20);
  }
  for (std::thread& t : threads) t.join();
  return phase;
}

struct TenantSummary {
  std::vector<double> gold_ms;
  double gold_bytes = 0.0;
  int64_t gold_shed = 0;
  int64_t bronze_good = 0, bronze_admitted = 0, bronze_degraded = 0, bronze_shed = 0;
  double bronze_goodput = 0.0;
  std::vector<double> lag_ms;
};

TenantSummary SummarizeTenants(const TenantPhase& phase, Report* report) {
  TenantSummary s;
  auto check = [&](const TenantResult& r, const char* tenant, bool shed_allowed) {
    ++report->attempted;
    s.lag_ms.push_back(Ms(r.send_ns - r.start_ns));
    if (r.status == 503 && shed_allowed) {
      ++report->failed;  // refused by design: counted, not a wrong result
      return;
    }
    if (r.status < 200 || r.status >= 300) {
      ++report->failed;
      report->Fail(scoop::StrFormat("%s request -> %d", tenant, r.status));
    } else if (!r.correct) {
      ++report->failed;
      report->Fail(scoop::StrFormat("%s response body differs from reference", tenant));
    }
  };
  for (const TenantResult& r : phase.gold) {
    check(r, "gold", false);
    s.gold_ms.push_back(Ms(r.end_ns - r.start_ns));
    s.gold_bytes += static_cast<double>(r.body_bytes);
    if (r.status == 503) ++s.gold_shed;
  }
  int64_t last_end = phase.start_ns;
  for (const TenantResult& r : phase.bronze) {
    check(r, "bronze", true);
    last_end = std::max(last_end, r.end_ns);
    if (r.status == 503) {
      ++s.bronze_shed;
    } else if (r.status >= 200 && r.status < 300 && r.correct) {
      ++s.bronze_good;
      ++(r.degraded ? s.bronze_degraded : s.bronze_admitted);
    }
  }
  s.bronze_goodput = Ratio(static_cast<double>(s.bronze_good),
                           static_cast<double>(last_end - phase.start_ns) / 1e9);
  return s;
}

Result<Report> RunTenants(const Options& options) {
  GeneratorConfig gen;
  gen.num_meters = 20;
  gen.readings_per_meter = 150;
  gen.seed = options.seed;
  std::vector<std::string> warm;
  {
    scoop::QueryMixConfig mix_config;
    mix_config.distinct_queries = 21;
    std::set<std::string> unique;
    scoop::RepeatedQueryMix mix(mix_config);
    for (const scoop::MixedQuery& q : mix.variants()) {
      unique.insert(MonthSelection(q.name));
    }
    warm.assign(unique.begin(), unique.end());
  }

  Report report;
  TransportProbe gold_probe(/*full=*/false);
  TransportProbe bronze_probe(/*full=*/false);
  std::vector<double> setup_s, upload_s;
  TenantDeployment d;
  for (int i = 0; i < kTenantSetups; ++i) {
    d.Reset();
    int64_t t0 = NowNs();
    double upload = 0.0;
    auto built = BuildTenants(gen, &gold_probe, &bronze_probe, warm, &upload);
    if (!built.ok()) return built.status();
    d = std::move(built).value();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    upload_s.push_back(upload);
  }
  std::vector<double> setup_put_ms;
  for (TransportProbe* probe : {&gold_probe, &bronze_probe}) {
    for (const RequestRecord& r : probe->Snapshot()) {
      if (r.method == HttpMethod::kPut && r.object) {
        setup_put_ms.push_back(Ms(r.end_ns - r.start_ns));
      }
    }
    probe->Clear();
  }

  TenantSchedules plain = MakeTenantSchedules(options.seed, options.seconds, 1'000'000);
  TenantSchedules traced_s = MakeTenantSchedules(options.seed, options.seconds, 3'000'000);
  std::vector<const TenantSchedules*> all = {&plain};
  if (options.trace) all.push_back(&traced_s);
  auto refs = MakeTenantRefs(d.cluster.get(), gen, all);
  if (!refs.ok()) return refs.status();

  TenantPhase phase = RunTenantPhase(d, plain, *refs);
  TenantSummary sum = SummarizeTenants(phase, &report);
  double gold_n = static_cast<double>(phase.gold.size());
  report.Add("setup_s", Percentile(setup_s, 0.5), "s");
  report.Add("queries_per_s", sum.bronze_goodput, "1/s");
  report.Add("query_ms_p50", Percentile(sum.gold_ms, 0.5), "ms");
  report.Add("query_ms_p95", Percentile(sum.gold_ms, 0.95), "ms");
  report.Add("ingest_bytes_per_query", Ratio(sum.gold_bytes, gold_n), "B");
  report.Add("requests_per_query",
             Ratio(static_cast<double>(gold_probe.requests()), gold_n), "1");
  report.Add("put_ms_p50", Percentile(setup_put_ms, 0.5), "ms");
  report.Add("put_ms_p90", Percentile(setup_put_ms, 0.9), "ms");
  report.Add("bronze_goodput_per_s", sum.bronze_goodput, "1/s");
  report.Add("queries", gold_n, "count");
  report.Add("puts", static_cast<double>(setup_put_ms.size()), "count");

  if (options.trace) {
    TransportProbe gold_traced(/*full=*/true);
    TransportProbe bronze_traced(/*full=*/true);
    auto& auth = d.cluster->swift().auth();
    auto gold = SwiftClient::ConnectVia(gold_traced.Wrap(InProcess(d.cluster.get())),
                                        auth, "light", "light-key", "lacct");
    auto bronze = SwiftClient::ConnectVia(
        bronze_traced.Wrap(InProcess(d.cluster.get())), auth, "heavy", "heavy-key",
        "hacct");
    if (!gold.ok()) return gold.status();
    if (!bronze.ok()) return bronze.status();
    *d.gold = std::move(gold).value();
    *d.bronze = std::move(bronze).value();
    gold_traced.SampleRequests(kReplaySamples / 2);
    bronze_traced.SampleRequests(kReplaySamples / 2);
    TenantPhase traced_phase = RunTenantPhase(d, traced_s, *refs);
    TenantSummary tsum = SummarizeTenants(traced_phase, &report);
    std::vector<RequestRecord> requests = gold_traced.Snapshot();
    std::vector<RequestRecord> bronze_requests = bronze_traced.Snapshot();

    report.Layer("workload.upload_s", Percentile(upload_s, 0.5), "s");
    report.Layer("workload.send_lag_ms_p95", Percentile(tsum.lag_ms, 0.95), "ms");
    // No SQL runs here: the compute and datasource layers do no work.
    report.Layer("compute.scan_concurrency", 0, "ratio");
    report.Layer("datasource.overread_ratio", 0, "ratio");
    report.Layer("datasource.fallback_partitions", 0, "count");

    // Client backoff: an operation's Send time not spent in its attempts.
    std::map<int, std::pair<int, int64_t>> attempts;  // op -> (count, ns)
    for (const auto* list : {&requests, &bronze_requests}) {
      for (const RequestRecord& r : *list) {
        auto& a = attempts[r.op];
        ++a.first;
        a.second += r.end_ns - r.start_ns;
      }
    }
    std::vector<double> backoff_ms;
    auto add_backoff = [&](const std::vector<TenantResult>& results, int base) {
      for (size_t i = 0; i < results.size(); ++i) {
        auto it = attempts.find(base + static_cast<int>(i));
        if (it == attempts.end() || it->second.first < 2) continue;
        backoff_ms.push_back(
            Ms(results[i].end_ns - results[i].send_ns - it->second.second));
      }
    };
    add_backoff(traced_phase.gold, 0);
    add_backoff(traced_phase.bronze, 1 << 20);

    requests.insert(requests.end(), bronze_requests.begin(), bronze_requests.end());
    std::map<std::string, const std::string*> by_path;
    for (const char* account : {"lacct", "hacct"}) {
      for (int k = 0; k < kTenantObjects; ++k) {
        by_path[scoop::StrFormat("/%s/meters/%s", account, ObjectName(k).c_str())] =
            &refs->raw[static_cast<size_t>(k)];
      }
    }
    auto raw_object = [&](const std::string& path) -> const std::string* {
      auto it = by_path.find(path);
      return it == by_path.end() ? nullptr : it->second;
    };
    // Tenant GETs carry no Range: an executed one covers the whole object.
    TransportLayers t = SummarizeTransport(requests, [&](const RequestRecord& r) {
      const std::string* object = raw_object(r.path);
      return object == nullptr ? uint64_t{0} : uint64_t{object->size()};
    });
    double traced_n = static_cast<double>(traced_phase.gold.size());
    AddTransportLayers(t, traced_n + static_cast<double>(traced_phase.bronze.size()),
                       setup_put_ms, &report);
    AddReplayLayers(d.cluster.get(), nullptr, t, requests, raw_object, refs->raw[0],
                    "lacct", 64 * 1024, &report);
    double bronze_n = static_cast<double>(traced_phase.bronze.size());
    AddQosLayers(Ratio(static_cast<double>(tsum.bronze_admitted), bronze_n),
                 Ratio(static_cast<double>(tsum.bronze_degraded), bronze_n),
                 Ratio(static_cast<double>(tsum.bronze_shed), bronze_n),
                 Ratio(static_cast<double>(tsum.gold_shed), traced_n),
                 Percentile(backoff_ms, 0.5), &report);
    double base_p50 = Percentile(sum.gold_ms, 0.5);
    report.Layer("trace.overhead_frac",
                 base_p50 > 0 ? Percentile(tsum.gold_ms, 0.5) / base_p50 - 1.0 : 0.0,
                 "fraction");
    // The clients go before the probes they record into.
    d.gold.reset();
    d.bronze.reset();
  }
  report.Add("peak_rss_mib", PeakRssMib(), "MiB");
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "table1_pushdown", "table1_plain", "dashboard_rw", "tenants_qos"};
  return names;
}

Result<Report> RunWorkload(const Options& options) {
  if (options.workload == "tenants_qos") return RunTenants(options);
  for (const std::string& name : WorkloadNames()) {
    if (name == options.workload) return RunSql(options);
  }
  return Status::InvalidArgument("unknown workload " + options.workload);
}

}  // namespace perfbench
