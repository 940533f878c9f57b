#include "probes.h"

#include <chrono>
#include <cstdlib>

#include "cache/cache_middleware.h"
#include "storlets/headers.h"

namespace perfbench {

using scoop::HttpResponse;
using scoop::Request;
using scoop::Result;

namespace {

thread_local int tl_op = -1;
thread_local int tl_scan = -1;

// Raw bytes a "bytes=first-last" Range header covers; 0 when absent or
// not in that closed form.
uint64_t RangeLength(const scoop::Headers& headers) {
  auto range = headers.Get("Range");
  if (!range || range->rfind("bytes=", 0) != 0) return 0;
  const char* text = range->c_str() + 6;
  char* end = nullptr;
  unsigned long long first = std::strtoull(text, &end, 10);
  if (end == text || *end != '-') return 0;
  const char* second = end + 1;
  unsigned long long last = std::strtoull(second, &end, 10);
  if (end == second || last < first) return 0;
  return last - first + 1;
}

bool IsObjectPath(const std::string& path) {
  int slashes = 0;
  for (char c : path) slashes += c == '/';
  return slashes >= 3;
}

// Forwards a response body and stamps its first byte, size and EOF (or the
// moment it is dropped unread) on the request's record.
class ProbedStream : public scoop::ByteStream {
 public:
  ProbedStream(std::shared_ptr<scoop::ByteStream> inner, RequestRecord* record)
      : inner_(std::move(inner)), record_(record) {}
  ~ProbedStream() override { Finish(); }

  ProbedStream(const ProbedStream&) = delete;
  ProbedStream& operator=(const ProbedStream&) = delete;

  Result<size_t> Read(char* buf, size_t n) override {
    Result<size_t> got = inner_->Read(buf, n);
    if (!got.ok() || *got == 0) {
      Finish();
    } else {
      if (record_->first_byte_ns == 0) record_->first_byte_ns = NowNs();
      record_->body_bytes += *got;
    }
    return got;
  }

  std::optional<uint64_t> SizeHint() const override {
    return inner_->SizeHint();
  }

 private:
  void Finish() {
    if (finished_) return;
    finished_ = true;
    record_->end_ns = NowNs();
  }

  std::shared_ptr<scoop::ByteStream> inner_;
  RequestRecord* record_;
  bool finished_ = false;
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetCurrentOp(int op) { tl_op = op; }

RequestRecord* TransportProbe::Begin() {
  auto record = std::make_unique<RequestRecord>();
  RequestRecord* raw = record.get();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
  return raw;
}

scoop::ClientTransportFn TransportProbe::Wrap(scoop::ClientTransportFn inner) {
  return [this, inner = std::move(inner)](Request request) -> HttpResponse {
    requests_.fetch_add(1);
    if (!full_ && request.method != scoop::HttpMethod::kPut) {
      return inner(std::move(request));
    }
    RequestRecord* record = Begin();
    record->method = request.method;
    record->path = request.path;
    record->object = IsObjectPath(request.path);
    record->pushdown = request.headers.Has(scoop::kRunStorletHeader);
    record->range_bytes = RangeLength(request.headers);
    record->scan = tl_scan;
    record->op = tl_op;
    if (record->object && request.method == scoop::HttpMethod::kGet &&
        sample_left_.fetch_sub(1) > 0) {
      record->request = std::make_shared<Request>(request);
    }
    record->start_ns = NowNs();
    HttpResponse response = inner(std::move(request));
    record->cache_hit = response.headers.Has(scoop::kCacheStatusHeader);
    record->storlet_executed =
        response.headers.Has(scoop::kStorletExecutedHeader);
    if (response.streamed()) {
      auto trailers = response.trailers();
      response.SetBodyStream(
          std::make_shared<ProbedStream>(response.TakeBodyStream(), record),
          std::move(trailers));
    } else {
      const HttpResponse& eager = response;
      record->body_bytes = eager.body().size();
      record->end_ns = NowNs();
      if (record->body_bytes > 0) record->first_byte_ns = record->end_ns;
    }
    return response;
  };
}

std::vector<RequestRecord> TransportProbe::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RequestRecord> out;
  out.reserve(records_.size());
  for (const auto& record : records_) out.push_back(*record);
  return out;
}

void TransportProbe::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  requests_.store(0);
}

Result<std::vector<scoop::Partition>> RelationProbe::Partitions() {
  PartitionsRecord record;
  record.query = query_.load();
  record.start_ns = NowNs();
  auto partitions = inner_->Partitions();
  record.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  partition_calls_.push_back(record);
  return partitions;
}

template <typename Fn>
Result<scoop::PartitionScanResult> RelationProbe::Timed(Fn&& scan) {
  ScanRecord record;
  record.id = next_scan_.fetch_add(1);
  record.query = query_.load();
  int outer = tl_scan;
  tl_scan = record.id;
  record.start_ns = NowNs();
  Result<scoop::PartitionScanResult> result = scan();
  record.end_ns = NowNs();
  tl_scan = outer;
  if (result.ok()) {
    record.ok = true;
    record.bytes_transferred = result->bytes_transferred;
    record.raw_bytes = result->raw_bytes;
    record.filter_applied = result->filter_applied;
    record.agg_applied = result->agg_applied;
  }
  std::lock_guard<std::mutex> lock(mu_);
  scans_.push_back(std::move(record));
  return result;
}

Result<scoop::PartitionScanResult> RelationProbe::ScanPartition(
    const scoop::Partition& partition,
    const std::vector<std::string>& required_columns,
    const scoop::SourceFilter& filter) {
  return Timed([&] {
    return inner_->ScanPartition(partition, required_columns, filter);
  });
}

Result<scoop::PartitionScanResult> RelationProbe::ScanPartition(
    const scoop::Partition& partition, const scoop::ScanSpec& spec) {
  return Timed([&] { return inner_->ScanPartition(partition, spec); });
}

std::vector<ScanRecord> RelationProbe::scans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return scans_;
}

std::vector<PartitionsRecord> RelationProbe::partition_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partition_calls_;
}

}  // namespace perfbench
