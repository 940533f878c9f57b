#include "csv/agg_storlet.h"

#include <numeric>

#include "common/strings.h"
#include "csv/batch_reader.h"
#include "csv/record_reader.h"
#include "sql/agg_wire.h"
#include "sql/aggregates.h"
#include "sql/group_fold.h"
#include "sql/source_filter.h"

namespace scoop {

namespace {

// Resolves one grouping spec of the partials mode: a bare column or
// substr(string-column, pos, len).
Result<FoldKey> ResolveGroupSpec(const std::string& spec,
                                 const Schema& schema) {
  FoldKey out;
  std::string column = spec;
  if (spec.rfind("substr(", 0) == 0 && spec.back() == ')') {
    std::vector<std::string_view> parts =
        Split(std::string_view(spec).substr(7, spec.size() - 8), ',');
    if (parts.size() != 3) {
      return Status::InvalidArgument("aggstorlet: bad group spec: " + spec);
    }
    Result<int64_t> pos = ParseInt64(parts[1]);
    Result<int64_t> len = ParseInt64(parts[2]);
    if (!pos.ok() || !len.ok()) {
      return Status::InvalidArgument("aggstorlet: bad group spec: " + spec);
    }
    out.pos = *pos;
    out.len = *len;
    out.is_substr = true;
    column = std::string(parts[0]);
  }
  int index = schema.IndexOf(column);
  if (index < 0) {
    return Status::NotFound("group column not in schema: " + column);
  }
  out.column = static_cast<size_t>(index);
  out.type = schema.column(out.column).type;
  if (out.is_substr && out.type != ColumnType::kString) {
    return Status::InvalidArgument(
        "aggstorlet: substr group key requires a string column: " + spec);
  }
  return out;
}

// Resolves one "<fn>:<column>" aggregate ("*" for count(*)).
Result<FoldAgg> ResolveAgg(AggKind kind, std::string_view column,
                           const Schema& schema) {
  FoldAgg out;
  out.kind = kind;
  if (column == "*") {
    if (kind != AggKind::kCount) {
      return Status::InvalidArgument("'*' is only valid with count");
    }
    return out;
  }
  out.column = schema.IndexOf(column);
  if (out.column < 0) {
    return Status::NotFound("agg column not in schema: " +
                            std::string(column));
  }
  out.type = schema.column(static_cast<size_t>(out.column)).type;
  return out;
}

}  // namespace

Status GroupAggStorlet::Invoke(StorletInputStream& input,
                               StorletOutputStream& output,
                               const StorletParams& params,
                               StorletLogger& logger) {
  auto schema_it = params.find("schema");
  if (schema_it == params.end()) {
    return Status::InvalidArgument("aggstorlet requires a 'schema' parameter");
  }
  SCOOP_ASSIGN_OR_RETURN(Schema schema, Schema::FromSpec(schema_it->second));

  // output=partials switches from finalized CSV rows to one SAG1 frame
  // of mergeable AggStates (sql/agg_wire.h) with typed group keys — the
  // aggregate-pushdown wire the driver merges with AggState::Merge.
  bool partials_mode = false;
  auto output_it = params.find("output");
  if (output_it != params.end() && !Trim(output_it->second).empty()) {
    std::string_view mode = Trim(output_it->second);
    if (mode == "partials") {
      partials_mode = true;
    } else if (mode != "csv") {
      return Status::InvalidArgument("aggstorlet: unknown output mode: " +
                                     std::string(mode));
    }
  }

  std::string group_param;
  auto group_it = params.find("group");
  if (group_it != params.end()) group_param = Trim(group_it->second);
  auto aggs_it = params.find("aggs");
  if (aggs_it == params.end() || Trim(aggs_it->second).empty()) {
    return Status::InvalidArgument("aggstorlet requires an 'aggs' parameter");
  }

  GroupFoldSpec fold_spec;
  std::vector<AggKind> wire_kinds;  // partials mode frame header
  if (partials_mode) {
    SCOOP_ASSIGN_OR_RETURN(
        AggPushdownSpec pushed,
        ParseAggPushdownSpec(group_param, Trim(aggs_it->second)));
    for (const std::string& g : pushed.group_specs) {
      SCOOP_ASSIGN_OR_RETURN(FoldKey key, ResolveGroupSpec(g, schema));
      fold_spec.keys.push_back(key);
    }
    for (size_t i = 0; i < pushed.agg_kinds.size(); ++i) {
      SCOOP_ASSIGN_OR_RETURN(
          FoldAgg agg,
          ResolveAgg(pushed.agg_kinds[i], pushed.agg_columns[i], schema));
      fold_spec.aggs.push_back(agg);
    }
    wire_kinds = std::move(pushed.agg_kinds);
  } else {
    // Group columns are read as strings: raw field bytes, empty as null.
    if (!group_param.empty()) {
      for (std::string_view name : Split(group_param, ',')) {
        int idx = schema.IndexOf(Trim(name));
        if (idx < 0) {
          return Status::NotFound("group column not in schema: " +
                                  std::string(Trim(name)));
        }
        FoldKey key;
        key.column = static_cast<size_t>(idx);
        fold_spec.keys.push_back(key);
      }
    }
    for (std::string_view part : Split(aggs_it->second, ',')) {
      part = Trim(part);
      size_t colon = part.find(':');
      if (colon == std::string_view::npos) {
        return Status::InvalidArgument("bad agg spec: " + std::string(part));
      }
      SCOOP_ASSIGN_OR_RETURN(AggKind kind,
                             AggKindFromName(part.substr(0, colon)));
      if (kind == AggKind::kAvg || kind == AggKind::kFirstValue) {
        return Status::InvalidArgument(
            "aggstorlet supports sum/min/max/count in csv output mode "
            "(avg/first_value do not merge as single finalized values)");
      }
      SCOOP_ASSIGN_OR_RETURN(
          FoldAgg agg, ResolveAgg(kind, Trim(part.substr(colon + 1)), schema));
      fold_spec.aggs.push_back(agg);
    }
  }

  SourceFilter selection = SourceFilter::True();
  auto selection_it = params.find("selection");
  if (selection_it != params.end() && !Trim(selection_it->second).empty()) {
    SCOOP_ASSIGN_OR_RETURN(selection,
                           SourceFilter::Parse(selection_it->second));
  }

  // Groups in SerializeGroupKey order: sorted, deterministic output.
  GroupMap groups;
  GroupFold fold(fold_spec);
  int64_t rows_in = 0;  // selected rows only

  // Batched structural scan of the CSV input; each selected record folds
  // straight from its raw fields.
  CsvStreamBatcher batcher(&input, schema.size());
  RawRecordBatch raw;
  std::vector<uint32_t> selected;
  while (batcher.Next(&raw)) {
    selected.resize(static_cast<size_t>(raw.num_rows));
    std::iota(selected.begin(), selected.end(), 0u);
    const RawFieldCells cells{raw.fields.data(), raw.num_fields};
    selection.MatchRows(cells, schema, &selected);
    rows_in += static_cast<int64_t>(selected.size());
    for (uint32_t r : selected) fold.Add(cells, r, &groups);
  }

  if (partials_mode) {
    AggPartialFrame frame;
    frame.agg_kinds = std::move(wire_kinds);
    frame.rows = rows_in;
    frame.groups.reserve(groups.size());
    for (auto& [key, group] : groups) frame.groups.push_back(std::move(group));
    std::string encoded;
    AppendAggPartialFrame(frame, &encoded);
    output.Write(encoded);
  } else {
    std::string scratch;
    std::vector<std::string> rendered;
    std::vector<std::string_view> views;
    for (const auto& [key, group] : groups) {
      rendered.clear();
      views.clear();
      for (const Value& v : group.key_values) rendered.push_back(v.ToString());
      for (size_t i = 0; i < fold_spec.aggs.size(); ++i) {
        rendered.push_back(
            group.states[i].Final(fold_spec.aggs[i].kind).ToString());
      }
      for (const std::string& s : rendered) views.push_back(s);
      scratch.clear();
      WriteCsvRecord(views, &scratch);
      output.Write(scratch);
    }
  }
  logger.Emit(StrFormat("aggstorlet: %lld rows -> %zu groups%s",
                        static_cast<long long>(rows_in), groups.size(),
                        partials_mode ? " (partial states out)" : ""));
  output.SetMetadata("groups", std::to_string(groups.size()));
  return Status::OK();
}

}  // namespace scoop
