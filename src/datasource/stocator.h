#ifndef SCOOP_DATASOURCE_STOCATOR_H_
#define SCOOP_DATASOURCE_STOCATOR_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "datasource/partitioner.h"
#include "objectstore/cluster.h"
#include "sql/agg_wire.h"
#include "sql/schema.h"
#include "sql/source_filter.h"
#include "storlets/storlet.h"

namespace scoop {

// A pushdown task as carried on an object request: the schema of the
// object plus the projection/selection Catalyst extracted (paper §IV-A's
// "piece of metadata attached to an object request").
struct PushdownTask {
  Schema schema;
  std::vector<std::string> projection;  // empty: keep all columns
  SourceFilter selection;               // True(): keep all rows
  // §VI-C extension: pipeline the CompressStorlet after the CSV filter so
  // the (already filtered) stream crosses the network compressed; the
  // connector decompresses transparently on receipt.
  bool compress_transfer = false;
  // Aggregation pushdown: when set, the GET runs the GroupAggStorlet in
  // partials mode instead of the CSVStorlet and the response body is one
  // SAG1 frame of per-group AggStates (sql/agg_wire.h). `projection` and
  // `compress_transfer` are ignored in this mode. The pointer must
  // outlive the read.
  const AggPushdownSpec* aggregate = nullptr;
  // LIMIT pushdown (row mode only): >= 0 caps the storlet output at this
  // many selection-surviving rows and stops the store-side scan early.
  int64_t limit = -1;
};

// The high-speed object-store connector (paper §V-A): reads partition
// byte ranges from Swift and — in Scoop's extension — injects the
// pushdown task into each GET so the CSVStorlet executes at the store.
// This is the analytics-delegator end of the protocol.
class Stocator {
 public:
  // `metrics` (optional) receives the "pushdown.fallbacks" counter — one
  // increment per read that degraded from storlet pushdown to a plain
  // client-side read — the "pushdown.partial_aggs" and
  // "pushdown.limit_short_circuits" counters for the aggregation/limit
  // extensions, plus the "stocator.read_us" (full partition drain, the
  // ingest latency the paper's figures measure) and
  // "pushdown.bytes_saved" histograms (see METRICS.md).
  explicit Stocator(SwiftClient* client, MetricRegistry* metrics = nullptr)
      : client_(client),
        metrics_(metrics),
        fallbacks_counter_(metrics != nullptr
                               ? metrics->GetCounter("pushdown.fallbacks")
                               : nullptr) {}

  struct ReadResult {
    std::string data;              // record-aligned CSV for the partition
    bool pushdown_executed = false;  // X-Storlet-Executed was present
    bool limit_hit = false;        // storlet stopped at the LIMIT cap
    uint64_t bytes_transferred = 0;  // body size over the inter-cluster link
    int requests = 1;              // GETs issued (alignment may add extras)
  };

  // ReadResult without the materialized data — what the streaming form
  // reports after the chunks have been delivered.
  struct ReadStats {
    bool pushdown_executed = false;
    bool limit_hit = false;
    uint64_t bytes_transferred = 0;
    int requests = 1;
  };

  // Reads `partition`. When `task` is provided the GET is tagged with the
  // CSVStorlet invocation; if the store declines (policy off) or the
  // storlet invocation *fails* — engine error, storlet crash mid-stream,
  // middleware fault — the connector degrades to a plain client-side read
  // (§IV graceful degradation) and the caller receives raw data with
  // pushdown_executed = false, to be filtered compute-side. Without
  // `task` the connector performs client-side Hadoop record alignment
  // itself (extra ranged GETs).
  Result<ReadResult> ReadPartition(const Partition& partition,
                                   const PushdownTask* task);

  // Streaming form of ReadPartition: delivers the partition's
  // record-aligned (or pushdown-filtered) data to `consume` chunk by
  // chunk as it arrives off the store, never materializing the whole
  // partition. Compressed transfers are the exception — the frame must be
  // buffered to decode. A non-OK status from `consume` aborts the read.
  //
  // `restart` (optional) enables mid-stream fallback: when a pushdown
  // stream fails after chunks were already delivered, restart() must
  // discard everything consumed so far; the read is then redone
  // client-side from scratch. Without `restart`, a mid-stream failure
  // after the first delivered chunk propagates as an error.
  Result<ReadStats> ReadPartitionInto(
      const Partition& partition, const PushdownTask* task,
      const std::function<Status(std::string_view)>& consume,
      const std::function<Status()>& restart = nullptr);

  // Uploads `data`, running the ETL storlet on the PUT path when
  // `etl_params` is provided (paper §V-A data cleansing at ingestion).
  Status PutObject(const std::string& container, const std::string& object,
                   std::string data, const StorletParams* etl_params);

  SwiftClient* client() { return client_; }
  // The registry this connector reports into (nullptr when metrics are
  // off); data sources built over the connector share it for their scan
  // metrics (csv.batches, csv.simd_bytes, scan.rows_per_batch).
  MetricRegistry* metrics() { return metrics_; }

 private:
  // ReadPartitionInto behind the "stocator.read_partition" root span;
  // `parent` is that span's context, stamped onto every GET so the whole
  // store-side tree (proxy -> object server -> storlet stages) hangs off
  // this partition read.
  Result<ReadStats> ReadPartitionIntoTraced(
      const Partition& partition, const PushdownTask* task,
      const std::function<Status(std::string_view)>& consume,
      const std::function<Status()>& restart, const TraceContext& parent);

  Result<ReadStats> ReadAlignedInto(
      const Partition& partition,
      const std::function<Status(std::string_view)>& consume,
      const TraceContext& parent);

  // The bottom rung of the ladder: counts the fallback, optionally
  // restarts the consumer, and redoes the read client-side. The stats
  // also count the one GET the failed pushdown attempt already spent.
  Result<ReadStats> Fallback(
      const Partition& partition,
      const std::function<Status(std::string_view)>& consume,
      const std::function<Status()>& restart, const TraceContext& parent);

  SwiftClient* client_;
  MetricRegistry* metrics_;
  Counter* fallbacks_counter_;
};

}  // namespace scoop

#endif  // SCOOP_DATASOURCE_STOCATOR_H_
