#ifndef SCOOP_SQL_SOURCE_FILTER_H_
#define SCOOP_SQL_SOURCE_FILTER_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/strings.h"
#include "sql/schema.h"
#include "sql/value.h"

namespace scoop {

// The stable filter representation handed from the Catalyst-like optimizer
// to data sources — the analogue of Spark's `sources.Filter` hierarchy that
// PartitionedRelation::ScanPartition receives. It also defines the wire format
// Stocator piggybacks on object requests: Serialize() produces the
// s-expression placed in the X-Storlet-Parameter-Selection header, which
// the CSV storlet Parse()s and evaluates against raw CSV fields.
struct SourceFilter {
  enum class Op {
    kTrue,  // matches everything (empty filter)
    kAnd,
    kOr,
    kNot,
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kLike,
    kIsNull,
    kIsNotNull,
  };

  Op op = Op::kTrue;
  std::string column;              // comparison operand
  std::string literal;             // literal rendered as text
  bool literal_is_number = false;  // numeric vs string comparison semantics
  std::vector<SourceFilter> children;  // for and/or/not

  static SourceFilter True() { return SourceFilter(); }
  static SourceFilter Compare(Op op, std::string column, const Value& literal);
  static SourceFilter Like(std::string column, std::string pattern);
  static SourceFilter IsNull(std::string column, bool negated);
  static SourceFilter And(std::vector<SourceFilter> children);
  static SourceFilter Or(std::vector<SourceFilter> children);
  static SourceFilter Not(SourceFilter child);

  bool IsTrue() const { return op == Op::kTrue; }

  // Parse rejects text nested more than this many parentheses deep: the
  // text arrives in a client-supplied header, and the parser recurses once
  // per level.
  static constexpr int kMaxParseDepth = 256;

  // S-expression wire form, e.g.
  //   (and (like city "Rotterdam") (ge index 100))
  std::string Serialize() const;
  static Result<SourceFilter> Parse(std::string_view text);

  // Narrows `selection` (candidate row indices) to the rows this filter
  // matches. The one evaluator of a pushed filter: the storlets run it
  // over raw CSV fields (RawFieldCells, csv/batch_reader.h) and
  // PhysicalPlan::ProcessBatch over typed column vectors (BatchCells,
  // columnar/record_batch.h). `Cells` reads a row's cell as its column's
  // `schema` type and answers null with false:
  //   bool Int64(uint32_t row, size_t column, int64_t* v) const;
  //   bool Double(uint32_t row, size_t column, double* v) const;
  //   bool String(uint32_t row, size_t column, std::string_view* v) const;
  // Comparisons and LIKE against null are false, as in EvalPredicate. An
  // int64 column compares exactly against an integral literal and as a
  // double against any other. A leaf on an unknown column, or whose
  // literal is a number on a string column or a string on a numeric one,
  // or a LIKE on a numeric column, matches no row: the catalyst pushes
  // none of these. A leaf narrows the selection in place and an AND
  // narrows it child by child; OR and NOT combine per-row masks. Per-leaf
  // work (column lookup, literal parse) is hoisted out of the row loop.
  template <typename Cells>
  void MatchRows(const Cells& cells, const Schema& schema,
                 std::vector<uint32_t>* selection) const;

  // Adds every referenced column name to `out`.
  void CollectColumns(std::set<std::string>* out) const;

  // Fraction-of-rows estimate, printed by PhysicalPlan::Explain and by
  // examples/adaptive_pushdown; crude static heuristics (equality is
  // rare, like-prefix is rarer than bare like, etc.).
  double EstimateSelectivity() const;

  bool operator==(const SourceFilter& other) const;

 private:
  // A comparison, LIKE or null test with its column looked up and its
  // literal parsed.
  struct Leaf {
    enum class Kind {
      kNever,
      kIsNull,
      kIsNotNull,
      kLike,
      kString,
      kInt64,          // exact, against an integral literal
      kInt64AsDouble,  // against any other numeric literal
      kDouble,
    };
    Kind kind = Kind::kNever;
    size_t column = 0;
    ColumnType type = ColumnType::kString;
    int64_t int64_literal = 0;
    double double_literal = 0;
  };
  Leaf ResolveLeaf(const Schema& schema) const;

  // Whether this comparison holds for a three-way comparison result.
  bool Holds(int cmp) const;

  template <typename T>
  static int Cmp3(T a, T b) {
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  template <typename Cells>
  static bool IsNullCell(const Cells& cells, uint32_t row, const Leaf& leaf);

  // Sets (*mask)[i] to whether row rows[i] matches.
  template <typename Cells>
  void EvalMask(const Cells& cells, const Schema& schema,
                const std::vector<uint32_t>& rows,
                std::vector<char>* mask) const;

  // Calls match(i) for each i, in order, whose row rows[i] this leaf
  // matches.
  template <typename Cells, typename Match>
  void ForEachLeafMatch(const Cells& cells, const Schema& schema,
                        const std::vector<uint32_t>& rows, Match&& match) const;
};

template <typename Cells>
void SourceFilter::MatchRows(const Cells& cells, const Schema& schema,
                             std::vector<uint32_t>* selection) const {
  if (op == Op::kTrue || selection->empty()) return;
  if (op == Op::kAnd) {
    for (const SourceFilter& child : children) {
      child.MatchRows(cells, schema, selection);
    }
    return;
  }
  std::vector<uint32_t>& rows = *selection;
  size_t kept = 0;
  if (op == Op::kOr || op == Op::kNot) {
    std::vector<char> mask;
    EvalMask(cells, schema, rows, &mask);
    for (size_t i = 0; i < rows.size(); ++i) {
      if (mask[i]) rows[kept++] = rows[i];
    }
  } else {
    // In place: a match at i is written at kept <= i, after rows[i] is read.
    ForEachLeafMatch(cells, schema, rows,
                     [&](size_t i) { rows[kept++] = rows[i]; });
  }
  rows.resize(kept);
}

template <typename Cells>
bool SourceFilter::IsNullCell(const Cells& cells, uint32_t row,
                              const Leaf& leaf) {
  switch (leaf.type) {
    case ColumnType::kInt64: {
      int64_t v;
      return !cells.Int64(row, leaf.column, &v);
    }
    case ColumnType::kDouble: {
      double v;
      return !cells.Double(row, leaf.column, &v);
    }
    case ColumnType::kString:
      break;
  }
  std::string_view v;
  return !cells.String(row, leaf.column, &v);
}

template <typename Cells>
void SourceFilter::EvalMask(const Cells& cells, const Schema& schema,
                            const std::vector<uint32_t>& rows,
                            std::vector<char>* mask) const {
  switch (op) {
    case Op::kTrue:
      mask->assign(rows.size(), 1);
      return;
    case Op::kAnd:
    case Op::kOr: {
      const bool is_and = op == Op::kAnd;
      mask->assign(rows.size(), is_and ? 1 : 0);
      std::vector<char> child_mask;
      for (const SourceFilter& child : children) {
        child.EvalMask(cells, schema, rows, &child_mask);
        for (size_t i = 0; i < rows.size(); ++i) {
          if (is_and) {
            (*mask)[i] &= child_mask[i];
          } else {
            (*mask)[i] |= child_mask[i];
          }
        }
      }
      return;
    }
    case Op::kNot:
      children[0].EvalMask(cells, schema, rows, mask);
      for (char& m : *mask) m = !m;
      return;
    default:
      break;
  }

  mask->assign(rows.size(), 0);
  ForEachLeafMatch(cells, schema, rows, [mask](size_t i) { (*mask)[i] = 1; });
}

template <typename Cells, typename Match>
void SourceFilter::ForEachLeafMatch(const Cells& cells, const Schema& schema,
                                    const std::vector<uint32_t>& rows,
                                    Match&& match) const {
  const Leaf leaf = ResolveLeaf(schema);
  const size_t col = leaf.column;
  std::string_view s;
  int64_t n = 0;
  double d = 0;
  switch (leaf.kind) {
    case Leaf::Kind::kNever:
      return;
    case Leaf::Kind::kIsNull:
    case Leaf::Kind::kIsNotNull: {
      const bool want_null = leaf.kind == Leaf::Kind::kIsNull;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (IsNullCell(cells, rows[i], leaf) == want_null) match(i);
      }
      return;
    }
    case Leaf::Kind::kLike:
      for (size_t i = 0; i < rows.size(); ++i) {
        if (cells.String(rows[i], col, &s) && LikeMatch(s, literal)) match(i);
      }
      return;
    case Leaf::Kind::kString:
      for (size_t i = 0; i < rows.size(); ++i) {
        if (cells.String(rows[i], col, &s) && Holds(s.compare(literal))) {
          match(i);
        }
      }
      return;
    case Leaf::Kind::kInt64:
      for (size_t i = 0; i < rows.size(); ++i) {
        if (cells.Int64(rows[i], col, &n) &&
            Holds(Cmp3(n, leaf.int64_literal))) {
          match(i);
        }
      }
      return;
    case Leaf::Kind::kInt64AsDouble:
      for (size_t i = 0; i < rows.size(); ++i) {
        if (cells.Int64(rows[i], col, &n) &&
            Holds(Cmp3(static_cast<double>(n), leaf.double_literal))) {
          match(i);
        }
      }
      return;
    case Leaf::Kind::kDouble:
      for (size_t i = 0; i < rows.size(); ++i) {
        if (cells.Double(rows[i], col, &d) &&
            Holds(Cmp3(d, leaf.double_literal))) {
          match(i);
        }
      }
      return;
  }
}

std::string_view SourceFilterOpName(SourceFilter::Op op);

}  // namespace scoop

#endif  // SCOOP_SQL_SOURCE_FILTER_H_
