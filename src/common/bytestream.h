#ifndef SCOOP_COMMON_BYTESTREAM_H_
#define SCOOP_COMMON_BYTESTREAM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/metrics.h"
#include "common/result.h"
#include "common/sync.h"

namespace scoop {

// The chunked streaming abstraction of the data path. The whole point of
// Scoop is that only the useful bytes cross the wire (paper §IV); holding
// entire objects in memory at every hop of GET -> middleware -> storlet
// pipeline -> connector defeats that. A ByteStream is a pull-based source
// of bytes consumed front to back in bounded chunks, so a request's peak
// buffering is O(chunk_size x pipeline_depth) instead of
// O(object_size x pipeline_depth).
//
// Ownership/lifetime rules (see DESIGN.md "Streaming data path"):
//  * A stream is single-consumer and consumed once; it is handed off by
//    std::shared_ptr and whoever holds the pointer may read it.
//  * A stream owns (or shares ownership of) whatever backs it — a string,
//    a stored object, a producer — so it stays valid wherever the response
//    travels.
//  * Dropping a stream before EOF is legal and must release the producer
//    (a queue unblocks its writer with an Aborted error).

// Default chunk granularity of the data path; producers cap each Read at
// their configured chunk size so consumers observe chunked delivery even
// when they offer a larger buffer.
inline constexpr size_t kDefaultStreamChunk = 64 * 1024;

class ByteStream {
 public:
  virtual ~ByteStream() = default;

  // Copies up to `n` bytes into `buf` and returns the count; 0 means EOF.
  // Errors (a failed upstream producer) surface as a non-OK status.
  virtual Result<size_t> Read(char* buf, size_t n) = 0;

  // Total bytes this stream will produce, when known up front (an
  // in-memory buffer or a device range). Unknown for producer-backed
  // streams such as a running storlet pipeline.
  virtual std::optional<uint64_t> SizeHint() const { return std::nullopt; }

  // Drains the remainder into a string (the compatibility edge for
  // buffered consumers).
  Result<std::string> ReadAll();

  // Drains the remainder through `consume`, `chunk_size` bytes at a time.
  Status DrainTo(const std::function<Status(std::string_view)>& consume,
                 size_t chunk_size = kDefaultStreamChunk);
};

// Push-based counterpart: where a producer writes its chunks.
class ByteSink {
 public:
  virtual ~ByteSink() = default;

  // Appends `data`; may block (a bounded queue applying backpressure).
  // Errors mean the consumer is gone and the producer should stop.
  virtual Status Write(std::string_view data) = 0;
};

// ---------------------------------------------------------------------------
// Backings

// Serves a string it owns. Each Read returns at most `chunk_size` bytes so
// downstream consumers see the same chunking a real producer would emit.
class StringByteStream : public ByteStream {
 public:
  explicit StringByteStream(std::string data,
                            size_t chunk_size = kDefaultStreamChunk)
      : data_(std::move(data)), chunk_size_(chunk_size ? chunk_size : 1) {}

  Result<size_t> Read(char* buf, size_t n) override;
  std::optional<uint64_t> SizeHint() const override {
    return data_.size() - pos_;
  }

 private:
  std::string data_;
  size_t chunk_size_;
  size_t pos_ = 0;
};

// Serves a [first, first+length) window of a buffer kept alive by `owner`
// (e.g. a StoredObject shared out of a device) — the zero-copy object-read
// backing.
class SharedBufferByteStream : public ByteStream {
 public:
  SharedBufferByteStream(std::shared_ptr<const void> owner,
                         std::string_view window,
                         size_t chunk_size = kDefaultStreamChunk)
      : owner_(std::move(owner)),
        window_(window),
        chunk_size_(chunk_size ? chunk_size : 1) {}

  Result<size_t> Read(char* buf, size_t n) override;
  std::optional<uint64_t> SizeHint() const override {
    return window_.size() - pos_;
  }

 private:
  std::shared_ptr<const void> owner_;
  std::string_view window_;
  size_t chunk_size_;
  size_t pos_ = 0;
};

// Pulls chunks from a producer callback. The producer returns the next
// chunk, an empty string at EOF, or an error.
class CallbackByteStream : public ByteStream {
 public:
  using Producer = std::function<Result<std::string>()>;
  explicit CallbackByteStream(Producer producer)
      : producer_(std::move(producer)) {}

  Result<size_t> Read(char* buf, size_t n) override;

 private:
  Producer producer_;
  std::string pending_;
  size_t pending_pos_ = 0;
  bool eof_ = false;
  Status error_ = Status::OK();
};

// Serves `prefix` first, then delegates to `rest`. Used to re-attach a
// chunk that was prefetched (e.g. to surface pipeline errors in the
// response status before any body byte is committed).
class PrefixedByteStream : public ByteStream {
 public:
  PrefixedByteStream(std::string prefix, std::shared_ptr<ByteStream> rest)
      : prefix_(std::move(prefix)), rest_(std::move(rest)) {}

  Result<size_t> Read(char* buf, size_t n) override;

 private:
  std::string prefix_;
  size_t pos_ = 0;
  std::shared_ptr<ByteStream> rest_;
};

// Passes reads through while adding the byte count to `counter` (traffic
// metrics for streamed bodies whose size is unknown up front).
class CountingByteStream : public ByteStream {
 public:
  CountingByteStream(std::shared_ptr<ByteStream> inner, Counter* counter)
      : inner_(std::move(inner)), counter_(counter) {}

  Result<size_t> Read(char* buf, size_t n) override;
  std::optional<uint64_t> SizeHint() const override {
    return inner_->SizeHint();
  }

 private:
  std::shared_ptr<ByteStream> inner_;
  Counter* counter_;
};

// Invokes `on_eof` exactly once when the inner stream reaches EOF (not on
// abandonment). Lets a producer publish completion data — e.g. storlet
// metadata trailers — once the last chunk has been delivered.
class EofCallbackByteStream : public ByteStream {
 public:
  EofCallbackByteStream(std::shared_ptr<ByteStream> inner,
                        std::function<void()> on_eof)
      : inner_(std::move(inner)), on_eof_(std::move(on_eof)) {}

  Result<size_t> Read(char* buf, size_t n) override;

 private:
  std::shared_ptr<ByteStream> inner_;
  std::function<void()> on_eof_;
  bool fired_ = false;
};

// ---------------------------------------------------------------------------
// RecordAlignedStream — the Hadoop text-input contract (paper §V-A) over a
// raw byte-range body. The store runs it for pushdown GETs that ask for
// record alignment (X-Storlet-Range-Records); the connector runs it for
// every plain partition read.
//
// A split [first, last] with first > 0 is fetched from first-1. When
// `skip_first` is set the stream drops everything up to and including the
// first '\n': a record begun before `first` belongs to the previous split,
// while one starting exactly at `first` is kept. Once the body is drained
// the stream completes the trailing record by calling `fetch` for the
// bytes after it — kFirstExtension bytes, then twice as many per call up
// to kMaxExtension — until a fetch holds a '\n' or the object ends. Bytes
// past that '\n' are dropped. A skip still pending scans the extensions
// too, so a split wholly inside one record yields nothing. A failed fetch
// fails the Read that needed it: the trailing record is never clipped.
class RecordAlignedStream : public ByteStream {
 public:
  // Returns object bytes [first, last] (inclusive).
  using Fetch =
      std::function<Result<std::string>(uint64_t first, uint64_t last)>;

  // A GridPocket record is under 100 B, so one first fetch nearly always
  // completes it; the doubling bounds the fetch count for long records.
  static constexpr uint64_t kFirstExtension = 256;
  static constexpr uint64_t kMaxExtension = 64 * 1024;

  // `body` ends just before object offset `body_end`; `object_size` bounds
  // the extension reads.
  RecordAlignedStream(std::shared_ptr<ByteStream> body, bool skip_first,
                      uint64_t body_end, uint64_t object_size, Fetch fetch)
      : body_(std::move(body)),
        skipping_(skip_first),
        cursor_(body_end),
        object_size_(object_size),
        fetch_(std::move(fetch)) {}

  Result<size_t> Read(char* buf, size_t n) override;

 private:
  // The next piece of the unaligned logical stream, at most `n` bytes: the
  // body (read into `buf`), then the extension through the trailing
  // record's '\n'. Empty at EOF.
  Result<std::string_view> NextPiece(char* buf, size_t n);

  std::shared_ptr<ByteStream> body_;  // null once drained
  bool skipping_;
  uint64_t cursor_;  // object offset of the next extension fetch
  const uint64_t object_size_;
  Fetch fetch_;
  uint64_t fetch_size_ = kFirstExtension;
  char last_char_ = '\0';  // '\n' ends the extension phase
  std::string extension_;  // the current fetch, cut after its first '\n'
  size_t extension_pos_ = 0;
};

// ---------------------------------------------------------------------------
// BoundedByteQueue — the inter-stage pipe of the storlet pipeline.
//
// A single-producer single-consumer blocking queue of chunks with a hard
// byte bound: Write blocks while the queue is full (backpressure), Read
// blocks while it is empty. This is what makes §IV-B pipelining real —
// stage i+1 consumes stage i's chunks as they are produced, and no stage
// can run ahead by more than `max_bytes` of buffered data.
//
// The producer finishes with CloseWrite(status): OK propagates EOF, an
// error propagates to the consumer's Read. Destroying the Reader (consumer
// abandons mid-stream) unblocks the producer with an Aborted error.
//
// Locking contract: `mu_` (rank lockrank::kQueue) guards every queue field;
// both sides block on it via CondVars. It is a leaf lock — no other Mutex
// is ever acquired while it is held (metric updates are atomic).
class BoundedByteQueue {
 public:
  // `max_bytes` caps buffered bytes (at least one chunk is always
  // admitted so oversized writes cannot deadlock). `buffered_bytes`
  // (optional) tracks global buffered bytes and their peak;
  // `chunk_counter` (optional) counts chunks through this queue.
  explicit BoundedByteQueue(size_t max_bytes, Gauge* buffered_bytes = nullptr,
                            Counter* chunk_counter = nullptr);
  ~BoundedByteQueue();

  BoundedByteQueue(const BoundedByteQueue&) = delete;
  BoundedByteQueue& operator=(const BoundedByteQueue&) = delete;

  // Producer side.
  Status Write(std::string_view data) EXCLUDES(mu_);
  void CloseWrite(Status final_status) EXCLUDES(mu_);

  // Producer died mid-stream (storlet crash): discards everything still
  // buffered and fails the consumer's next Read with `error` — a poisoned
  // queue never delivers stale chunks or blocks a reader forever. No-op if
  // the producer already closed cleanly.
  void Poison(Status error) EXCLUDES(mu_);

  // Consumer side.
  Result<size_t> Read(char* buf, size_t n) EXCLUDES(mu_);
  void CloseRead() EXCLUDES(mu_);

  // A ByteStream view over the consumer side; closes the read side when
  // destroyed so an abandoned stream releases the producer. Keeps `owner`
  // alive (the queue typically lives inside a pipeline state object).
  class Reader : public ByteStream {
   public:
    Reader(BoundedByteQueue* queue, std::shared_ptr<void> owner)
        : queue_(queue), owner_(std::move(owner)) {}
    ~Reader() override { queue_->CloseRead(); }
    Result<size_t> Read(char* buf, size_t n) override {
      return queue_->Read(buf, n);
    }

   private:
    BoundedByteQueue* queue_;
    std::shared_ptr<void> owner_;
  };

  // A ByteSink view over the producer side.
  class Writer : public ByteSink {
   public:
    explicit Writer(BoundedByteQueue* queue) : queue_(queue) {}
    Status Write(std::string_view data) override {
      return queue_->Write(data);
    }

   private:
    BoundedByteQueue* queue_;
  };

 private:
  const size_t max_bytes_;
  // UNGUARDED: registry pointers resolved in the constructor; Gauge and
  // Counter are internally atomic.
  Gauge* buffered_bytes_;
  Counter* chunk_counter_;  // UNGUARDED: same as buffered_bytes_

  Mutex mu_{"bytequeue", lockrank::kQueue};
  CondVar can_write_;
  CondVar can_read_;
  std::deque<std::string> chunks_ GUARDED_BY(mu_);
  size_t queued_bytes_ GUARDED_BY(mu_) = 0;
  // Consumed prefix of chunks_.front().
  size_t front_pos_ GUARDED_BY(mu_) = 0;
  bool write_closed_ GUARDED_BY(mu_) = false;
  bool read_closed_ GUARDED_BY(mu_) = false;
  Status final_status_ GUARDED_BY(mu_) = Status::OK();
};

// Appends everything written to a string (the compatibility edge).
class StringByteSink : public ByteSink {
 public:
  explicit StringByteSink(std::string* out) : out_(out) {}
  Status Write(std::string_view data) override {
    out_->append(data);
    return Status::OK();
  }

 private:
  std::string* out_;
};

}  // namespace scoop

#endif  // SCOOP_COMMON_BYTESTREAM_H_
