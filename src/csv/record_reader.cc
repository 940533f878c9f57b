#include "csv/record_reader.h"

#include "common/strings.h"

namespace scoop {

const std::vector<std::string_view>& CsvRecordParser::Parse(
    std::string_view line) {
  fields_.clear();
  owned_.clear();
  if (line.find('"') == std::string_view::npos) {
    // Fast path: plain splitting, zero copies.
    size_t start = 0;
    while (true) {
      size_t comma = line.find(',', start);
      if (comma == std::string_view::npos) {
        fields_.push_back(line.substr(start));
        break;
      }
      fields_.push_back(line.substr(start, comma - start));
      start = comma + 1;
    }
    return fields_;
  }
  // Quoted path.
  size_t i = 0;
  while (true) {
    if (i < line.size() && line[i] == '"') {
      // Quoted field: unescape "" into ".
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
      // Skip to the next separator.
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
      // Trailing comma: final empty field.
      fields_.push_back(std::string_view());
      break;
    }
  }
  return fields_;
}

bool ScalarRowReader::Next(Row* row) {
  while (pos_ < data_.size()) {
    size_t nl = data_.find('\n', pos_);
    std::string_view line;
    if (nl == std::string_view::npos) {
      line = data_.substr(pos_);
      pos_ = data_.size();
    } else {
      line = data_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const std::vector<std::string_view>& fields = parser_.Parse(line);
    if (fields.size() != schema_->size()) {
      ++malformed_;
      continue;
    }
    row->clear();
    row->reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      row->push_back(Value::FromField(fields[i], schema_->column(i).type));
    }
    ++rows_;
    return true;
  }
  return false;
}

void WriteCsvRecord(const std::vector<std::string_view>& fields,
                    std::string* out) {
  // A single empty field would serialize to a blank line, which every
  // reader skips as if the record never existed — a null row must survive
  // a projection round-trip, so quote it instead.
  if (fields.size() == 1 && fields[0].empty()) {
    out->append("\"\"\n");
    return;
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendCsvField(fields[i], out);
  }
  out->push_back('\n');
}

void WriteCsvRow(const Row& row, std::string* out) {
  std::vector<std::string> rendered;
  rendered.reserve(row.size());
  std::vector<std::string_view> views;
  views.reserve(row.size());
  for (const Value& v : row) {
    rendered.push_back(v.ToString());
  }
  for (const std::string& s : rendered) views.push_back(s);
  WriteCsvRecord(views, out);
}

}  // namespace scoop
