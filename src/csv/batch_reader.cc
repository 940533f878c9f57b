#include "csv/batch_reader.h"

#include "columnar/simd.h"
#include "common/strings.h"
#include "storlets/storlet.h"

namespace scoop {

namespace {

// Parses one raw field into `col` with Value::FromField semantics.
void AppendField(std::string_view field, ColumnType type, ColumnVector* col) {
  if (field.empty()) {
    col->AppendNull();
    return;
  }
  switch (type) {
    case ColumnType::kString:
      col->AppendString(field);
      return;
    case ColumnType::kInt64: {
      int64_t v = 0;
      if (ParseInt64Field(field, &v)) {
        col->AppendInt64(v);
      } else {
        col->AppendNull();
      }
      return;
    }
    case ColumnType::kDouble: {
      double v = 0;
      if (ParseDoubleField(field, &v)) {
        col->AppendDouble(v);
      } else {
        col->AppendNull();
      }
      return;
    }
  }
}

}  // namespace

CsvRecordCursor::CsvRecordCursor(std::string_view data) : data_(data) {
  ScanCsvStructural(data_.data(), data_.size(), &structural_);
}

void CsvRecordCursor::ParseQuoted(std::string_view line) {
  // Mirror of CsvRecordParser::Parse's quoted branch, except unescaped
  // fields land in a per-window arena so views survive across records.
  fields_.clear();
  size_t i = 0;
  while (true) {
    if (i < line.size() && line[i] == '"') {
      owned_.emplace_back();
      std::string& field = owned_.back();
      ++i;
      while (i < line.size()) {
        char c = line[i++];
        if (c == '"') {
          if (i < line.size() && line[i] == '"') {
            field.push_back('"');
            ++i;
          } else {
            break;
          }
        } else {
          field.push_back(c);
        }
      }
      fields_.push_back(field);
      while (i < line.size() && line[i] != ',') ++i;
    } else {
      size_t comma = line.find(',', i);
      size_t end = comma == std::string_view::npos ? line.size() : comma;
      fields_.push_back(line.substr(i, end - i));
      i = end;
    }
    if (i >= line.size()) break;
    ++i;  // consume ','
    if (i == line.size()) {
      fields_.push_back(std::string_view());
      break;
    }
  }
}

bool CsvRecordCursor::Advance() {
  while (pos_ < data_.size()) {
    commas_.clear();
    bool has_quote = false;
    size_t nl = data_.size();
    while (token_ < structural_.size()) {
      uint32_t t = structural_[token_++];
      uint32_t off = t & kCsvOffsetMask;
      uint32_t tag = t & kCsvTagMask;
      if (tag == kCsvTagNewline) {
        nl = off;
        break;
      }
      if (tag == kCsvTagQuote) {
        has_quote = true;
      } else {
        commas_.push_back(off);
      }
    }
    size_t start = pos_;
    size_t end = nl;
    pos_ = nl < data_.size() ? nl + 1 : data_.size();
    if (end > start && data_[end - 1] == '\r') --end;
    if (end == start) continue;  // blank line, skipped like the row readers
    record_ = data_.substr(start, end - start);
    if (has_quote) {
      ParseQuoted(record_);
    } else {
      fields_.clear();
      size_t fstart = start;
      for (uint32_t comma : commas_) {
        fields_.push_back(data_.substr(fstart, comma - fstart));
        fstart = comma + 1;
      }
      fields_.push_back(data_.substr(fstart, end - fstart));
    }
    return true;
  }
  return false;
}

CsvBatchReader::CsvBatchReader(std::string_view data, const Schema* schema,
                               CsvBatchOptions options)
    : schema_(schema), options_(options), cursor_(data) {
  stats_.scanned_bytes = data.size();
}

bool CsvBatchReader::Next(RecordBatch* batch) {
  RecordBatch out(*schema_);
  int64_t n = 0;
  while (n < options_.max_batch_rows && cursor_.Advance()) {
    const std::vector<std::string_view>& fields = cursor_.fields();
    if (fields.size() != schema_->size()) {
      ++stats_.malformed_rows;
      continue;
    }
    if (n == 0) out.Reserve(options_.max_batch_rows);
    for (size_t i = 0; i < fields.size(); ++i) {
      AppendField(fields[i], schema_->column(i).type, out.mutable_column(i));
    }
    ++n;
  }
  if (n == 0) return false;
  out.set_num_rows(n);
  stats_.rows_read += n;
  ++stats_.batches;
  *batch = std::move(out);
  return true;
}

CsvStreamBatcher::CsvStreamBatcher(StorletInputStream* input,
                                   size_t num_fields, CsvBatchOptions options)
    : input_(input), num_fields_(num_fields), options_(options) {
  if (options_.window_bytes == 0) options_.window_bytes = 1;
}

bool CsvStreamBatcher::Refill() {
  if (eof_ && carry_.empty()) return false;
  buffer_ = std::move(carry_);
  carry_.clear();
  cursor_.reset();
  while (!eof_ && buffer_.size() < options_.window_bytes) {
    size_t old = buffer_.size();
    size_t want = options_.window_bytes - old;
    buffer_.resize(old + want);
    size_t got = input_->Read(buffer_.data() + old, want);
    buffer_.resize(old + got);
    if (got == 0) eof_ = true;
  }
  // Cut the window at the last complete record; the tail carries over.
  // A window with no newline at all keeps growing until one shows up or
  // the stream ends — a single record is never split.
  size_t cut;
  for (;;) {
    size_t nl = buffer_.rfind('\n');
    if (nl != std::string::npos) {
      cut = nl + 1;
      break;
    }
    if (eof_) {
      cut = buffer_.size();
      break;
    }
    size_t old = buffer_.size();
    buffer_.resize(old + options_.window_bytes);
    size_t got = input_->Read(buffer_.data() + old, options_.window_bytes);
    buffer_.resize(old + got);
    if (got == 0) eof_ = true;
  }
  if (cut < buffer_.size()) {
    carry_.assign(buffer_, cut, buffer_.size() - cut);
    buffer_.resize(cut);
  }
  if (buffer_.empty()) return Refill();  // e.g. a window of pure carry
  cursor_ = std::make_unique<CsvRecordCursor>(buffer_);
  return true;
}

bool CsvStreamBatcher::Next(RawRecordBatch* batch) {
  batch->num_rows = 0;
  batch->num_fields = num_fields_;
  batch->fields.clear();
  batch->records.clear();
  while (batch->num_rows < options_.max_batch_rows) {
    if (cursor_ == nullptr || !cursor_->Advance()) {
      // End the batch at the window edge when it already has rows: a
      // refill would replace the buffer the collected views point into.
      if (batch->num_rows > 0) return true;
      if (!Refill()) return false;
      continue;
    }
    ++records_seen_;
    const std::vector<std::string_view>& fields = cursor_->fields();
    if (fields.size() != num_fields_) {
      ++malformed_;
      continue;
    }
    batch->fields.insert(batch->fields.end(), fields.begin(), fields.end());
    batch->records.push_back(cursor_->record());
    ++batch->num_rows;
  }
  return true;
}

}  // namespace scoop
