// The vectorized CSV scan path: one structural SIMD/SWAR pass finds
// every delimiter, then fields are parsed straight into column vectors —
// no per-row Row allocation, no per-field find(). Semantics are
// bit-compatible with the reference ScalarRowReader in record_reader.h
// (blank-line skipping, CR stripping, quoted-field unescaping, malformed
// accounting); the equivalence suite in tests/csv_test.cc holds the two
// together.
#ifndef SCOOP_CSV_BATCH_READER_H_
#define SCOOP_CSV_BATCH_READER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/record_batch.h"
#include "columnar/schema.h"
#include "common/strings.h"

namespace scoop {

class StorletInputStream;

struct CsvBatchOptions {
  int64_t max_batch_rows = kDefaultBatchRows;
  // Stream scanning (CsvStreamBatcher): bytes buffered per scan window.
  // Windows are always cut at record boundaries, so this only bounds
  // memory, never splits a record.
  size_t window_bytes = 256 * 1024;
};

// Types one raw numeric CSV field the way the scan does, with
// Value::FromField semantics: false (null) for an empty or unparseable
// field. The fast parsers take the common shapes; the rest falls back to
// ParseInt64/ParseDouble.
inline bool ParseInt64Field(std::string_view field, int64_t* out) {
  if (FastParseInt64(field, out)) return true;
  if (field.empty()) return false;
  Result<int64_t> parsed = ParseInt64(field);
  if (!parsed.ok()) return false;
  *out = *parsed;
  return true;
}

inline bool ParseDoubleField(std::string_view field, double* out) {
  if (FastParseDouble(field, out)) return true;
  if (field.empty()) return false;
  Result<double> parsed = ParseDouble(field);
  if (!parsed.ok()) return false;
  *out = *parsed;
  return true;
}

// Row-major raw CSV fields, `num_fields` per row, read as typed cells
// for SourceFilter::MatchRows and GroupFold: a field types the way the
// scan types it, and an empty or unparseable field is null.
struct RawFieldCells {
  const std::string_view* fields;
  size_t num_fields;

  std::string_view Field(uint32_t row, size_t column) const {
    return fields[row * num_fields + column];
  }
  bool Int64(uint32_t row, size_t column, int64_t* v) const {
    return ParseInt64Field(Field(row, column), v);
  }
  bool Double(uint32_t row, size_t column, double* v) const {
    return ParseDoubleField(Field(row, column), v);
  }
  bool String(uint32_t row, size_t column, std::string_view* v) const {
    *v = Field(row, column);
    return !v->empty();
  }
};

// Walks a fully-buffered window using the structural scan, yielding one
// record at a time as unescaped field views. Blank lines are skipped,
// trailing '\r' stripped, and records containing quotes take an
// unescaping path that mirrors CsvRecordParser exactly (the equivalence
// tests pin the two together).
class CsvRecordCursor {
 public:
  explicit CsvRecordCursor(std::string_view data = std::string_view()) {
    Reset(data);
  }

  // Rescans for a new window, keeping the scratch buffers' capacity.
  // Views into the previous window are invalidated.
  void Reset(std::string_view data);

  // Advances to the next non-empty record; false at end of window.
  bool Advance();

  // Field views are valid until the next Reset (unescaped quoted fields
  // live in a cursor-owned arena, plain fields in the window).
  const std::vector<std::string_view>& fields() const { return fields_; }
  // The CR-stripped raw record bytes (for verbatim pass-through).
  std::string_view record() const { return record_; }
  // Whether the record holds a '"' (its fields took the unescaping path).
  bool quoted() const { return quoted_; }

 private:
  void ParseQuoted(std::string_view line);

  std::string_view data_;
  std::vector<uint32_t> structural_;  // tagged offsets, see columnar/simd.h
  size_t token_ = 0;                  // next structural token
  size_t pos_ = 0;                    // start of next record
  std::string_view record_;
  bool quoted_ = false;
  std::vector<std::string_view> fields_;
  std::vector<uint32_t> commas_;     // scratch: comma offsets of one record
  std::deque<std::string> owned_;    // unescaped quoted fields, per window
};

// Scan statistics shared by the batch readers. `malformed_rows` counts
// field-count mismatches (skipped), exactly like ScalarRowReader.
struct CsvScanStats {
  int64_t rows_read = 0;
  int64_t malformed_rows = 0;
  int64_t batches = 0;
  uint64_t scanned_bytes = 0;
};

// Streams typed RecordBatches out of a fully-buffered CSV object slice.
class CsvBatchReader {
 public:
  CsvBatchReader(std::string_view data, const Schema* schema,
                 CsvBatchOptions options = CsvBatchOptions());

  // Fills `batch` with up to max_batch_rows typed rows; false at EOF.
  bool Next(RecordBatch* batch);

  const CsvScanStats& stats() const { return stats_; }

 private:
  const Schema* schema_;
  CsvBatchOptions options_;
  CsvRecordCursor cursor_;
  CsvScanStats stats_;
};

// One scanned batch of raw (untyped) records for the storlet filters:
// unescaped field views plus the original record bytes.
struct RawRecordBatch {
  int64_t num_rows = 0;
  size_t num_fields = 0;
  // Row-major: fields[row * num_fields + col].
  std::vector<std::string_view> fields;
  // CR-stripped original record bytes, for verbatim selection output.
  std::vector<std::string_view> records;
};

// Cuts a pull-based storlet input stream into bounded scan windows:
// bytes are buffered up to window_bytes, the window is cut at the last
// complete record, and the tail carries into the next window — so
// records (including quoted fields) are never split however the
// underlying ByteStream re-chunks the transfer. A window with no newline
// keeps growing until one shows up or the stream ends. The one window
// loop behind CsvStreamBatcher and the ETL storlet.
class CsvWindowStream {
 public:
  // `input` is borrowed and must outlive the stream.
  CsvWindowStream(StorletInputStream* input, size_t window_bytes);
  // The cursor views buffer_, so the stream stays where it was built.
  CsvWindowStream(const CsvWindowStream&) = delete;
  CsvWindowStream& operator=(const CsvWindowStream&) = delete;

  // Scans the next window and returns its cursor, or nullptr once the
  // stream is exhausted. Invalidates every view into the previous window.
  CsvRecordCursor* Next();

 private:
  StorletInputStream* input_;
  size_t window_bytes_;
  std::string buffer_;  // the current window, then its carried-over tail
  size_t window_size_ = 0;  // bytes of buffer_ the current window spans
  CsvRecordCursor cursor_;
  bool eof_ = false;
};

// Batch scanning over a pull-based storlet input stream: CsvWindowStream's
// windows, collected into batches of well-formed records.
class CsvStreamBatcher {
 public:
  // `input` is borrowed and must outlive the batcher. `num_fields` is
  // the schema arity used for malformed classification.
  CsvStreamBatcher(StorletInputStream* input, size_t num_fields,
                   CsvBatchOptions options = CsvBatchOptions());

  // Fills `batch` with up to max_batch_rows well-formed records; false
  // at EOF. Views are valid until the next call.
  bool Next(RawRecordBatch* batch);

  // Cumulative counters across all batches so far.
  int64_t malformed_rows() const { return malformed_; }
  // Non-empty records seen, malformed included — the storlets' rows-in.
  int64_t records_seen() const { return records_seen_; }

 private:
  size_t num_fields_;
  int64_t max_batch_rows_;
  CsvWindowStream windows_;
  CsvRecordCursor* cursor_ = nullptr;  // the current window's, or null
  int64_t malformed_ = 0;
  int64_t records_seen_ = 0;
};

}  // namespace scoop

#endif  // SCOOP_CSV_BATCH_READER_H_
