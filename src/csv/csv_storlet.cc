#include "csv/csv_storlet.h"

#include <numeric>

#include "common/strings.h"
#include "csv/batch_reader.h"
#include "csv/record_reader.h"
#include "sql/source_filter.h"

namespace scoop {

Status CsvStorlet::Invoke(StorletInputStream& input,
                          StorletOutputStream& output,
                          const StorletParams& params, StorletLogger& logger) {
  auto schema_it = params.find("schema");
  if (schema_it == params.end()) {
    return Status::InvalidArgument("csvstorlet requires a 'schema' parameter");
  }
  SCOOP_ASSIGN_OR_RETURN(Schema schema, Schema::FromSpec(schema_it->second));

  // Projection: resolve names to source indices once.
  std::vector<int> projection;
  bool project_all = true;
  auto projection_it = params.find("projection");
  if (projection_it != params.end() &&
      !Trim(projection_it->second).empty()) {
    project_all = false;
    for (std::string_view name : Split(projection_it->second, ',')) {
      int idx = schema.IndexOf(Trim(name));
      if (idx < 0) {
        return Status::NotFound("projection column not in schema: " +
                                std::string(Trim(name)));
      }
      projection.push_back(idx);
    }
  }

  SourceFilter selection = SourceFilter::True();
  auto selection_it = params.find("selection");
  if (selection_it != params.end() && !Trim(selection_it->second).empty()) {
    SCOOP_ASSIGN_OR_RETURN(selection,
                           SourceFilter::Parse(selection_it->second));
  }

  // LIMIT pushdown: stop after emitting this many selection-surviving
  // rows. Only valid when the driver needs a row *prefix* (no ORDER BY,
  // no aggregation) — the planner decides that; here it is just a cap.
  int64_t limit = -1;
  auto limit_it = params.find("limit");
  if (limit_it != params.end() && !Trim(limit_it->second).empty()) {
    Result<int64_t> parsed = ParseInt64(limit_it->second);
    if (!parsed.ok() || *parsed < 0) {
      return Status::InvalidArgument("csvstorlet: bad 'limit' parameter: " +
                                     std::string(Trim(limit_it->second)));
    }
    limit = *parsed;
  }

  // One structural scan per window, selection evaluated over whole
  // RawRecordBatches with a selection vector. The batcher drops records
  // whose arity differs from the schema, whatever the parameter shape.
  CsvStreamBatcher batcher(&input, schema.size());
  RawRecordBatch raw;
  std::vector<uint32_t> selected;
  std::vector<std::string_view> projected;
  std::string scratch;
  int64_t rows_out = 0;
  bool limit_hit = limit == 0;
  while (!limit_hit && batcher.Next(&raw)) {
    selected.resize(static_cast<size_t>(raw.num_rows));
    std::iota(selected.begin(), selected.end(), 0u);
    selection.MatchRows(RawFieldCells{raw.fields.data(), raw.num_fields},
                        schema, &selected);
    if (limit >= 0 &&
        static_cast<int64_t>(selected.size()) > limit - rows_out) {
      selected.resize(static_cast<size_t>(limit - rows_out));
    }
    if (selected.empty()) continue;
    rows_out += static_cast<int64_t>(selected.size());
    if (project_all) {
      for (uint32_t r : selected) output.WriteLine(raw.records[r]);
    } else {
      for (uint32_t r : selected) {
        projected.clear();
        for (int idx : projection) {
          projected.push_back(
              raw.fields[r * raw.num_fields + static_cast<size_t>(idx)]);
        }
        scratch.clear();
        WriteCsvRecord(projected, &scratch);
        output.Write(scratch);
      }
    }
    // LIMIT pushdown: stop the scan (and, via queue teardown, the
    // upstream object read) once enough rows are out.
    if (limit >= 0 && rows_out >= limit) limit_hit = true;
  }
  int64_t rows_in = batcher.records_seen();
  logger.Emit(StrFormat("csvstorlet: %lld rows in, %lld rows out",
                        static_cast<long long>(rows_in),
                        static_cast<long long>(rows_out)));
  output.SetMetadata("rows-in", std::to_string(rows_in));
  output.SetMetadata("rows-out", std::to_string(rows_out));
  if (limit_hit) output.SetMetadata("limit-hit", "1");
  return Status::OK();
}

}  // namespace scoop
