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

void CsvRecordCursor::Reset(std::string_view data) {
  data_ = data;
  structural_.clear();
  ScanCsvStructural(data_.data(), data_.size(), &structural_);
  token_ = 0;
  pos_ = 0;
  record_ = std::string_view();
  quoted_ = false;
  fields_.clear();
  owned_.clear();
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
    quoted_ = has_quote;
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

CsvWindowStream::CsvWindowStream(StorletInputStream* input,
                                 size_t window_bytes)
    : input_(input), window_bytes_(window_bytes == 0 ? 1 : window_bytes) {}

CsvRecordCursor* CsvWindowStream::Next() {
  buffer_.erase(0, window_size_);  // the previous window; its tail stays
  window_size_ = 0;
  size_t target = window_bytes_;
  for (;;) {
    size_t filled = buffer_.size();
    if (!eof_ && filled < target) {
      buffer_.resize(target);
      while (!eof_ && filled < target) {
        size_t got = input_->Read(buffer_.data() + filled, target - filled);
        if (got == 0) eof_ = true;
        filled += got;
      }
      buffer_.resize(filled);
    }
    // Cut the window at the last complete record; a window with no
    // newline at all grows until one shows up or the stream ends.
    size_t nl = buffer_.rfind('\n');
    if (nl != std::string::npos) {
      window_size_ = nl + 1;
      break;
    }
    if (eof_) {
      window_size_ = buffer_.size();
      break;
    }
    target = buffer_.size() + window_bytes_;
  }
  if (window_size_ == 0) return nullptr;
  cursor_.Reset(std::string_view(buffer_.data(), window_size_));
  return &cursor_;
}

CsvStreamBatcher::CsvStreamBatcher(StorletInputStream* input,
                                   size_t num_fields, CsvBatchOptions options)
    : num_fields_(num_fields),
      max_batch_rows_(options.max_batch_rows),
      windows_(input, options.window_bytes) {}

bool CsvStreamBatcher::Next(RawRecordBatch* batch) {
  batch->num_rows = 0;
  batch->num_fields = num_fields_;
  batch->fields.clear();
  batch->records.clear();
  while (batch->num_rows < max_batch_rows_) {
    if (cursor_ == nullptr || !cursor_->Advance()) {
      // End the batch at the window edge when it already has rows: the
      // next window replaces the buffer the collected views point into.
      if (batch->num_rows > 0) return true;
      cursor_ = windows_.Next();
      if (cursor_ == nullptr) return false;
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
