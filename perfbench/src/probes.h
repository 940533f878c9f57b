// The benchmark's private instrumentation. Spans and counters live in the
// benchmark's own memory: nothing is registered in the program's
// MetricRegistry and no TraceSpan is opened. Two decorators wrap public
// seams of the stack:
//
//  * TransportProbe wraps a ClientTransportFn (SwiftCluster::Handle or
//    TcpFabric::Handle) before it is handed to SwiftClient::ConnectVia.
//    Each request's span ends at body EOF: streamed bodies are re-wrapped
//    so the probe sees the first byte and the last.
//  * RelationProbe is a PartitionedRelation over a CsvDataSource,
//    registered through SparkSession::RegisterTable; it times partition
//    discovery and every partition scan.
//
// With tracing off the transport probe records PUTs only (their latency
// is an end-to-end metric) and the relation probe is not installed.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "datasource/csv_source.h"
#include "objectstore/cluster.h"

namespace perfbench {

int64_t NowNs();

// One request as the transport probe saw it.
struct RequestRecord {
  scoop::HttpMethod method = scoop::HttpMethod::kGet;
  bool object = false;    // object path (vs account/container)
  bool pushdown = false;  // carried X-Run-Storlet
  std::string path;
  int64_t start_ns = 0;
  int64_t first_byte_ns = 0;  // 0: empty body
  int64_t end_ns = 0;         // body EOF (or drop)
  uint64_t body_bytes = 0;
  uint64_t range_bytes = 0;  // raw bytes the Range header covers; 0: none
  bool cache_hit = false;    // X-Scoop-Cache: hit or coalesced
  bool storlet_executed = false;
  int scan = -1;    // RelationProbe scan that issued it, -1: none
  int op = -1;      // workload operation that issued it, -1: none
  // Kept for the replays (object GETs only, when sampling).
  std::shared_ptr<scoop::Request> request;
};

// One partition scan as the relation probe saw it.
struct ScanRecord {
  int id = -1;
  int query = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t bytes_transferred = 0;
  uint64_t raw_bytes = 0;
  bool ok = false;
  bool filter_applied = false;
  bool agg_applied = false;
};

struct PartitionsRecord {
  int query = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Attributes the requests the calling thread sends next to workload
// operation `op` (-1: none). Scans attribute themselves.
void SetCurrentOp(int op);

class TransportProbe {
 public:
  // `full`: record every request (traced run); otherwise PUTs only.
  explicit TransportProbe(bool full) : full_(full) {}

  TransportProbe(const TransportProbe&) = delete;
  TransportProbe& operator=(const TransportProbe&) = delete;

  // A transport that forwards to `inner` and records into this probe,
  // which must outlive it.
  scoop::ClientTransportFn Wrap(scoop::ClientTransportFn inner);

  // Keep a copy of up to `n` object GET requests for the replays.
  void SampleRequests(int n) { sample_left_.store(n); }

  // Requests sent through this probe, recorded or not.
  int64_t requests() const { return requests_.load(); }

  // Records completed so far; call once no request is in flight.
  std::vector<RequestRecord> Snapshot() const;
  void Clear();

 private:
  RequestRecord* Begin();

  const bool full_;
  std::atomic<int> sample_left_{0};
  std::atomic<int64_t> requests_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RequestRecord>> records_;
};

class RelationProbe : public scoop::PartitionedRelation {
 public:
  explicit RelationProbe(std::shared_ptr<scoop::CsvDataSource> inner)
      : inner_(std::move(inner)) {}

  const scoop::Schema& schema() const override { return inner_->schema(); }

  scoop::Result<std::vector<scoop::Partition>> Partitions() override;
  scoop::Result<scoop::PartitionScanResult> ScanPartition(
      const scoop::Partition& partition,
      const std::vector<std::string>& required_columns,
      const scoop::SourceFilter& filter) override;
  scoop::Result<scoop::PartitionScanResult> ScanPartition(
      const scoop::Partition& partition, const scoop::ScanSpec& spec) override;

  // Attributes the following scans to query `query` (one query at a time:
  // the closed-loop client is single-threaded).
  void set_query(int query) { query_.store(query); }

  std::vector<ScanRecord> scans() const;
  std::vector<PartitionsRecord> partition_calls() const;

 private:
  template <typename Fn>
  scoop::Result<scoop::PartitionScanResult> Timed(Fn&& scan);

  std::shared_ptr<scoop::CsvDataSource> inner_;
  std::atomic<int> query_{-1};
  std::atomic<int> next_scan_{0};
  mutable std::mutex mu_;
  std::vector<ScanRecord> scans_;
  std::vector<PartitionsRecord> partition_calls_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
