// A schema plus one ColumnVector per column — the unit of work the batch
// data plane moves between the scanner and the evaluator. Columns are
// held by shared_ptr so projection is a pointer copy, not a data copy.
#ifndef SCOOP_COLUMNAR_RECORD_BATCH_H_
#define SCOOP_COLUMNAR_RECORD_BATCH_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "columnar/column_vector.h"
#include "columnar/schema.h"
#include "columnar/value.h"

namespace scoop {

// Rows the scanner packs into one batch before handing it downstream;
// large enough to amortize per-batch overhead, small enough to stay in
// cache.
inline constexpr int64_t kDefaultBatchRows = 4096;

class RecordBatch {
 public:
  RecordBatch() = default;
  // Creates an empty batch with one column vector per schema column.
  explicit RecordBatch(Schema schema);

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return rows_; }
  size_t num_columns() const { return columns_.size(); }
  const ColumnVector& column(size_t i) const { return *columns_[i]; }
  ColumnVector* mutable_column(size_t i) { return columns_[i].get(); }

  void Reserve(int64_t n);
  // Callers appending directly to the column vectors must keep them in
  // lockstep and then account the rows here.
  void set_num_rows(int64_t n) { rows_ = n; }

  void AppendRow(const Row& row);
  // Materializes row `i` into `row` (cleared first) — the bridge back to
  // the row-at-a-time APIs.
  void ExtractRow(int64_t i, Row* row) const;
  std::vector<Row> ToRows() const;
  static RecordBatch FromRows(const Schema& schema,
                              const std::vector<Row>& rows);

  // Projection: column k of the result is this batch's column
  // `indices[k]` (shared, zero-copy), or an all-null column of
  // `projected`'s declared type when `indices[k]` < 0.
  RecordBatch SelectColumns(const Schema& projected,
                            const std::vector<int>& indices) const;

 private:
  Schema schema_;
  int64_t rows_ = 0;
  std::vector<std::shared_ptr<ColumnVector>> columns_;
};

// A batch's cells read by row for SourceFilter::MatchRows and GroupFold
// (sql/): a cleared validity bit is null. A cell is read as its column
// vector's type, so a caller reading by a schema first checks that the
// batch's column types are the schema's.
struct BatchCells {
  const RecordBatch& batch;

  bool Int64(uint32_t row, size_t column, int64_t* v) const {
    const ColumnVector& col = batch.column(column);
    if (col.is_null(row)) return false;
    *v = col.Int64At(row);
    return true;
  }
  bool Double(uint32_t row, size_t column, double* v) const {
    const ColumnVector& col = batch.column(column);
    if (col.is_null(row)) return false;
    *v = col.DoubleAt(row);
    return true;
  }
  bool String(uint32_t row, size_t column, std::string_view* v) const {
    const ColumnVector& col = batch.column(column);
    if (col.is_null(row)) return false;
    *v = col.StringAt(row);
    return true;
  }
};

}  // namespace scoop

#endif  // SCOOP_COLUMNAR_RECORD_BATCH_H_
