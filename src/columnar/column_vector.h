// One typed column of a RecordBatch: a flat value array plus a validity
// bitmap, Arrow-style. String columns keep their bytes in a single arena
// (offsets + bytes), so appending a value never allocates per row.
#ifndef SCOOP_COLUMNAR_COLUMN_VECTOR_H_
#define SCOOP_COLUMNAR_COLUMN_VECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/schema.h"
#include "columnar/value.h"

namespace scoop {

class ColumnVector {
 public:
  explicit ColumnVector(ColumnType type) : type_(type) {}

  ColumnType type() const { return type_; }
  int64_t size() const { return size_; }

  bool is_null(int64_t i) const {
    return (validity_[static_cast<size_t>(i) >> 6] &
            (1ull << (static_cast<size_t>(i) & 63))) == 0;
  }
  int64_t Int64At(int64_t i) const { return ints_[i]; }
  double DoubleAt(int64_t i) const { return doubles_[i]; }
  std::string_view StringAt(int64_t i) const {
    return std::string_view(bytes_).substr(offsets_[i],
                                           offsets_[i + 1] - offsets_[i]);
  }
  // The value at row `i` as a dynamically-typed Value (the bridge
  // RecordBatch::ExtractRow uses; null rows yield Value::Null()).
  Value GetValue(int64_t i) const;

  void Reserve(int64_t n);
  void AppendNull();
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string_view v);
  // Typed append for RecordBatch::AppendRow. A value whose type mismatches the
  // column is converted (numeric casts; ToString() for string columns) —
  // well-typed rows round-trip exactly.
  void AppendValue(const Value& v);

 private:
  void AppendValidity(bool valid);

  ColumnType type_;
  int64_t size_ = 0;
  std::vector<uint64_t> validity_;  // bit set = non-null

  std::vector<int64_t> ints_;     // kInt64 (0 for null)
  std::vector<double> doubles_;   // kDouble (0.0 for null)
  std::vector<uint32_t> offsets_ = {0};  // kString: arena offsets, size()+1
  std::string bytes_;
};

}  // namespace scoop

#endif  // SCOOP_COLUMNAR_COLUMN_VECTOR_H_
