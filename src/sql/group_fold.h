// The one GROUP BY fold: GroupAggStorlet's partial aggregation (over raw
// CSV fields) and PhysicalPlan::ProcessBatch (over typed column vectors)
// both fold rows into groups through GroupFold::Add, so the two sides
// cannot drift apart. A row costs no Row, no key Value and no key string
// of its own: its key is encoded into one reused buffer with the
// SerializeGroupKey encoder (sql/agg_wire.h), the group is looked up by
// view, the key Values are built only when the row opens a new group,
// and states update from typed cells.
#ifndef SCOOP_SQL_GROUP_FOLD_H_
#define SCOOP_SQL_GROUP_FOLD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "sql/agg_wire.h"
#include "sql/aggregates.h"
#include "sql/expr_eval.h"
#include "sql/schema.h"

namespace scoop {

// Groups by their SerializeGroupKey bytes. The transparent comparator
// lets a lookup take a view of the fold's key buffer.
using GroupMap = std::map<std::string, AggPartialGroup, std::less<>>;

// A group key the fold reads straight from one column:
// the column itself, or substr(column, pos, len) over a string column.
struct FoldKey {
  size_t column = 0;
  ColumnType type = ColumnType::kString;
  bool is_substr = false;
  int64_t pos = 0;
  int64_t len = 0;
};

// An aggregate over one column, or count(*) when column < 0.
struct FoldAgg {
  AggKind kind = AggKind::kCount;
  int column = -1;
  ColumnType type = ColumnType::kInt64;
};

struct GroupFoldSpec {
  std::vector<FoldKey> keys;
  std::vector<FoldAgg> aggs;
};

// Folds one row at a time into a GroupMap. `Cells` is the row-indexed
// cell reader SourceFilter::MatchRows takes (sql/source_filter.h), so
// one reader per data form serves the filter and the fold. Keys and
// states come out equal to what EvalExpr and AggState::Update compute
// over the same row as a Row (PhysicalPlan::ProcessRow).
class GroupFold {
 public:
  explicit GroupFold(const GroupFoldSpec& spec) : spec_(spec) {}

  template <typename Cells>
  void Add(const Cells& cells, uint32_t row, GroupMap* groups) {
    key_.clear();
    for (const FoldKey& key : spec_.keys) {
      VisitKey(key, cells, row, [this](auto v) { Encode(v); });
    }
    auto it = groups->lower_bound(std::string_view(key_));
    if (it == groups->end() || it->first != key_) {
      AggPartialGroup group;
      group.key_values.reserve(spec_.keys.size());
      for (const FoldKey& key : spec_.keys) {
        VisitKey(key, cells, row, [&group](auto v) {
          if constexpr (std::is_same_v<decltype(v), std::monostate>) {
            group.key_values.emplace_back();
          } else {
            group.key_values.emplace_back(v);
          }
        });
      }
      group.states.resize(spec_.aggs.size());
      it = groups->emplace_hint(it, key_, std::move(group));
    }
    std::vector<AggState>& states = it->second.states;
    for (size_t i = 0; i < spec_.aggs.size(); ++i) {
      const FoldAgg& agg = spec_.aggs[i];
      AggState& state = states[i];
      if (state.Settled(agg.kind)) continue;
      if (agg.column < 0) {
        state.Update(AggKind::kCount, Value(static_cast<int64_t>(1)));
        continue;
      }
      const size_t column = static_cast<size_t>(agg.column);
      switch (agg.type) {
        case ColumnType::kInt64: {
          int64_t v = 0;
          state.Update(agg.kind,
                       cells.Int64(row, column, &v) ? Value(v) : Value());
          break;
        }
        case ColumnType::kDouble: {
          double v = 0;
          state.Update(agg.kind,
                       cells.Double(row, column, &v) ? Value(v) : Value());
          break;
        }
        case ColumnType::kString: {
          std::string_view v;
          state.Update(agg.kind,
                       cells.String(row, column, &v) ? Value(v) : Value());
          break;
        }
      }
    }
  }

 private:
  // Calls `f` with the key's cell: std::monostate for null, otherwise an
  // int64_t, a double or a std::string_view (substr already applied).
  template <typename Cells, typename F>
  static void VisitKey(const FoldKey& key, const Cells& cells, uint32_t row,
                       F&& f) {
    switch (key.type) {
      case ColumnType::kInt64: {
        int64_t v = 0;
        if (cells.Int64(row, key.column, &v)) return f(v);
        break;
      }
      case ColumnType::kDouble: {
        double v = 0;
        if (cells.Double(row, key.column, &v)) return f(v);
        break;
      }
      case ColumnType::kString: {
        std::string_view v;
        if (cells.String(row, key.column, &v)) {
          return f(key.is_substr ? SqlSubstringView(v, key.pos, key.len) : v);
        }
        break;
      }
    }
    f(std::monostate());
  }

  void Encode(std::monostate) { AppendGroupKeyNull(&key_); }
  void Encode(int64_t v) { AppendGroupKeyInt64(v, &key_); }
  void Encode(double v) { AppendGroupKeyDouble(v, &key_); }
  void Encode(std::string_view v) { AppendGroupKeyString(v, &key_); }

  const GroupFoldSpec& spec_;
  std::string key_;  // the current row's key, reused across rows
};

}  // namespace scoop

#endif  // SCOOP_SQL_GROUP_FOLD_H_
