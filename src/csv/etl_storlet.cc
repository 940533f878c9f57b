#include "csv/etl_storlet.h"

#include "common/strings.h"
#include "csv/batch_reader.h"
#include "csv/record_reader.h"
#include "sql/schema.h"

namespace scoop {

Status EtlStorlet::Invoke(StorletInputStream& input,
                          StorletOutputStream& output,
                          const StorletParams& params, StorletLogger& logger) {
  auto schema_it = params.find("schema");
  if (schema_it == params.end()) {
    return Status::InvalidArgument("etlstorlet requires a 'schema' parameter");
  }
  SCOOP_ASSIGN_OR_RETURN(Schema schema, Schema::FromSpec(schema_it->second));

  auto get = [&params](const std::string& key, std::string fallback) {
    auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  };
  bool trim = ToLower(get("trim", "true")) == "true";
  bool drop_malformed = ToLower(get("drop_malformed", "true")) == "true";

  int split_index = -1;
  char split_separator = ';';
  std::vector<std::string> split_names;
  std::string split_column = get("split_column", "");
  if (!split_column.empty()) {
    split_index = schema.IndexOf(split_column);
    if (split_index < 0) {
      return Status::NotFound("split_column not in schema: " + split_column);
    }
    std::string sep = get("split_separator", ";");
    if (sep.size() != 1) {
      return Status::InvalidArgument("split_separator must be one character");
    }
    split_separator = sep[0];
    split_names = SplitCopy(get("split_names", ""), ',');
    if (split_names.empty() || split_names[0].empty()) {
      return Status::InvalidArgument("split_names required with split_column");
    }
  }

  // Output schema: original columns with the split column replaced by the
  // new ones (typed as strings; downstream schemas refine them).
  std::vector<Column> out_columns;
  for (size_t i = 0; i < schema.size(); ++i) {
    if (static_cast<int>(i) == split_index) {
      for (const std::string& name : split_names) {
        out_columns.push_back(Column{name, ColumnType::kString});
      }
    } else {
      out_columns.push_back(schema.column(i));
    }
  }
  Schema out_schema((std::vector<Column>(out_columns)));

  // The shared windowed scan. Records are cut at every '\n' with one
  // trailing '\r' stripped; whitespace-only records are skipped uncounted.
  CsvWindowStream windows(&input, CsvBatchOptions().window_bytes);
  std::vector<std::string_view> out_fields;
  std::string scratch;
  int64_t rows_in = 0;
  int64_t rows_dropped = 0;
  while (CsvRecordCursor* cursor = windows.Next()) {
    while (cursor->Advance()) {
      std::string_view record = cursor->record();
      if (Trim(record).empty()) continue;
      ++rows_in;
      // A record of the wrong arity is dropped in either mode: no reader
      // downstream could parse it.
      const std::vector<std::string_view>& fields = cursor->fields();
      if (fields.size() != schema.size()) {
        ++rows_dropped;
        continue;
      }
      // One pass checks the numeric fields (when dropping malformed rows)
      // and whether the record can go out as its own bytes: unquoted,
      // nothing to split, and no field for trim to change.
      bool verbatim = !cursor->quoted() && split_index < 0;
      bool malformed = false;
      for (size_t i = 0; i < fields.size(); ++i) {
        std::string_view field = fields[i];
        if (trim && !field.empty() &&
            (IsSpace(field.front()) || IsSpace(field.back()))) {
          verbatim = false;
          field = Trim(field);
        }
        if (!drop_malformed || field.empty()) continue;  // nulls are fine
        const ColumnType type = schema.column(i).type;
        int64_t i64 = 0;
        double f64 = 0;
        if ((type == ColumnType::kInt64 && !ParseInt64Field(field, &i64)) ||
            (type == ColumnType::kDouble && !ParseDoubleField(field, &f64))) {
          malformed = true;
          break;
        }
      }
      if (malformed) {
        ++rows_dropped;
        continue;
      }
      // Unquoted fields of a '\n'-cut record hold no ',', '"' or '\n', so
      // WriteCsvRecord would render them back as these very bytes.
      if (verbatim) {
        output.WriteLine(record);
        continue;
      }
      out_fields.clear();
      for (size_t i = 0; i < fields.size(); ++i) {
        std::string_view field = trim ? Trim(fields[i]) : fields[i];
        if (static_cast<int>(i) != split_index) {
          out_fields.push_back(field);
          continue;
        }
        std::vector<std::string_view> pieces = Split(field, split_separator);
        for (size_t p = 0; p < split_names.size(); ++p) {
          out_fields.push_back(p < pieces.size()
                                   ? (trim ? Trim(pieces[p]) : pieces[p])
                                   : std::string_view());
        }
      }
      scratch.clear();
      WriteCsvRecord(out_fields, &scratch);
      output.Write(scratch);
    }
  }
  logger.Emit(StrFormat("etlstorlet: %lld rows in, %lld dropped",
                        static_cast<long long>(rows_in),
                        static_cast<long long>(rows_dropped)));
  output.SetMetadata("schema", out_schema.ToSpec());
  output.SetMetadata("rows-dropped", std::to_string(rows_dropped));
  return Status::OK();
}

}  // namespace scoop
