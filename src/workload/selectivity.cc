#include "workload/selectivity.h"

#include "csv/batch_reader.h"
#include "csv/record_reader.h"
#include "sql/executor.h"
#include "sql/expr_eval.h"
#include "sql/parser.h"

namespace scoop {

Result<SelectivityReport> MeasureSelectivity(const std::string& sql,
                                             const Schema& schema,
                                             std::string_view data) {
  SCOOP_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSql(sql));
  SCOOP_ASSIGN_OR_RETURN(auto plan, PhysicalPlan::Create(stmt, schema));

  std::vector<int> required;
  std::vector<bool> is_required(schema.size(), false);
  for (const std::string& name : plan->required_columns()) {
    int idx = schema.IndexOf(name);
    required.push_back(idx);
    if (idx >= 0) is_required[static_cast<size_t>(idx)] = true;
  }

  SelectivityReport report;
  uint64_t required_bytes_all_rows = 0;  // projected volume over all rows
  CsvRecordParser parser;
  size_t pos = 0;
  Row scan_row;
  std::vector<uint32_t> selected;
  while (pos < data.size()) {
    size_t nl = data.find('\n', pos);
    std::string_view line = nl == std::string_view::npos
                                ? data.substr(pos)
                                : data.substr(pos, nl - pos);
    pos = nl == std::string_view::npos ? data.size() : nl + 1;
    if (line.empty()) continue;
    uint64_t line_bytes = line.size() + 1;  // include the newline
    report.bytes_total += line_bytes;
    ++report.rows_total;

    const std::vector<std::string_view>& fields = parser.Parse(line);
    if (fields.size() != schema.size()) continue;

    // Projected record size: required fields plus separators and newline.
    uint64_t projected = required.empty() ? 0 : required.size();  // commas+\n
    for (int idx : required) {
      if (idx >= 0) projected += fields[static_cast<size_t>(idx)].size();
    }
    required_bytes_all_rows += projected;

    // Row filter: the real pushed filter + residual conjuncts.
    selected.assign(1, 0);
    plan->pushed_filter().MatchRows(RawFieldCells{fields.data(), fields.size()},
                                    schema, &selected);
    bool passes = !selected.empty();
    if (passes) {
      scan_row.clear();
      for (size_t i = 0; i < required.size(); ++i) {
        int idx = required[i];
        scan_row.push_back(
            idx >= 0 ? Value::FromField(fields[static_cast<size_t>(idx)],
                                        schema.column(static_cast<size_t>(idx))
                                            .type)
                     : Value::Null());
      }
      PartialResult scratch;
      plan->ProcessRow(scan_row, /*filters_already_applied=*/true, &scratch);
      passes = scratch.rows_passed > 0;
    }
    if (passes) {
      ++report.rows_kept;
      report.bytes_kept += projected;
    }
  }

  if (report.rows_total > 0) {
    report.row_selectivity =
        1.0 - static_cast<double>(report.rows_kept) /
                  static_cast<double>(report.rows_total);
  }
  if (report.bytes_total > 0) {
    report.column_selectivity =
        1.0 - static_cast<double>(required_bytes_all_rows) /
                  static_cast<double>(report.bytes_total);
    report.data_selectivity =
        1.0 - static_cast<double>(report.bytes_kept) /
                  static_cast<double>(report.bytes_total);
  }
  return report;
}

}  // namespace scoop
