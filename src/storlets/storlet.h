// The Storlet abstraction (paper §III-B): a computation deployed into
// the store, invoked with an input stream, an output stream, parameters,
// and a logger — this file defines that interface and the stream/logger
// types it consumes. Concrete filters (CSV, ETL, compress, agg) live in
// their own headers.
#ifndef SCOOP_STORLETS_STORLET_H_
#define SCOOP_STORLETS_STORLET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytestream.h"
#include "common/result.h"

namespace scoop {

// Parameters passed to a storlet invocation (the pushdown-task metadata
// decoded from the request headers).
using StorletParams = std::map<std::string, std::string>;

// Collects log lines emitted by a storlet run; surfaced to the caller for
// debugging, mirroring the StorletLogger of the OpenStack framework.
class StorletLogger {
 public:
  void Emit(std::string line) { lines_.push_back(std::move(line)); }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

// Pull-based input stream over the (possibly range-sliced) object data.
// Storlets consume it once, front to back — the single inbound stream of
// an object request (paper §IV-A). It pulls a ByteStream incrementally
// (the pipelined path, §IV-B), so only a bounded window is resident at a
// time; Remaining() must buffer the rest, so whole-input storlets lose
// the memory bound (but still work). Views returned by ReadLine() and
// Remaining() stay valid only until the next read call.
class StorletInputStream {
 public:
  // `stream` is borrowed and must outlive this object.
  explicit StorletInputStream(ByteStream* stream) : stream_(stream) {}

  // Copies up to `n` bytes into `buf`; returns the count (0 at EOF).
  size_t Read(char* buf, size_t n);

  // Returns the next line without its trailing '\n' (handles a final
  // unterminated line); nullopt at EOF.
  std::optional<std::string_view> ReadLine();

  // Remaining unread bytes; drains the stream into an internal buffer
  // first.
  std::string_view Remaining();
  size_t bytes_consumed() const { return consumed_; }
  bool AtEof();

  // Upstream failure, if any. A failed stream reads as EOF to the storlet
  // (Read/ReadLine cannot report errors); the sandbox checks this after
  // the run so a broken producer fails the stage instead of silently
  // truncating its input.
  const Status& status() const { return status_; }

 private:
  // Pulls more data from stream_ into buf_. Returns false at EOF or error.
  bool Fill(size_t hint);

  ByteStream* stream_;
  std::string buf_;  // bytes pulled but not yet consumed: [bpos_, size)
  size_t bpos_ = 0;
  bool stream_eof_ = false;
  size_t consumed_ = 0;
  Status status_ = Status::OK();
};

// Push-based output stream; whatever the storlet writes becomes the
// response body the requesting task receives. Writes are coalesced to
// `flush_chunk` granularity and forwarded to the sink as they accumulate
// — a pipelined stage's output becomes visible to the next stage while
// this one is still running. Sink errors (the consumer went away) are
// swallowed at the Write() call — the Invoke contract has no error
// channel there — and surfaced via sink_status() after the run.
class StorletOutputStream {
 public:
  // `sink` is borrowed and must outlive this object.
  explicit StorletOutputStream(ByteSink* sink,
                               size_t flush_chunk = kDefaultStreamChunk)
      : sink_(sink), flush_chunk_(flush_chunk ? flush_chunk : 1) {}

  void Write(std::string_view data);
  void WriteLine(std::string_view line);

  // Response metadata the storlet wants to attach (X-Object-Meta-*).
  void SetMetadata(const std::string& key, std::string value) {
    metadata_[key] = std::move(value);
  }

  // Forwards any coalesced bytes to the sink.
  void Flush();

  const std::map<std::string, std::string>& metadata() const {
    return metadata_;
  }
  size_t bytes_written() const { return bytes_written_; }
  const Status& sink_status() const { return sink_status_; }

 private:
  ByteSink* sink_;
  size_t flush_chunk_;
  std::string pending_;  // coalesced bytes not yet forwarded
  size_t bytes_written_ = 0;
  Status sink_status_ = Status::OK();
  std::map<std::string, std::string> metadata_;
};

// The pushdown-filter interface — the C++ rendering of the paper's
// IStorlet. Implementations must be stateless across invocations (a fresh
// instance is created per request) and must not coordinate with other
// running filters (§IV-A: filters run within the context of a single
// inbound/outbound stream).
class Storlet {
 public:
  virtual ~Storlet() = default;

  virtual std::string name() const = 0;

  // Transforms `input` into `output`. `params` carries the pushdown task.
  virtual Status Invoke(StorletInputStream& input, StorletOutputStream& output,
                        const StorletParams& params, StorletLogger& logger) = 0;
};

using StorletFactory = std::function<std::unique_ptr<Storlet>()>;

}  // namespace scoop

#endif  // SCOOP_STORLETS_STORLET_H_
