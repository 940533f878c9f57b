#ifndef SCOOP_SQL_SOURCE_FILTER_H_
#define SCOOP_SQL_SOURCE_FILTER_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
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

  // Evaluates the filter against raw CSV fields. `fields` is a row-major
  // array of `num_fields` fields per row, `schema` gives column positions,
  // and `selection` holds candidate row indices into it; it is narrowed to
  // the rows this filter matches. Missing/empty fields are SQL nulls:
  // comparisons against them are false. Numeric comparisons parse the
  // field as the compute-side scan types it: an int64 column takes the
  // integer parse and compares exactly against an integral literal. An
  // unparseable field is null and never matches. Per-filter work (column
  // lookup, literal parse) is hoisted out of the row loop.
  void MatchRows(const std::string_view* fields, size_t num_fields,
                 const Schema& schema, std::vector<uint32_t>* selection) const;

  // Adds every referenced column name to `out`.
  void CollectColumns(std::set<std::string>* out) const;

  // Fraction-of-rows estimate, printed by PhysicalPlan::Explain and by
  // examples/adaptive_pushdown; crude static heuristics (equality is
  // rare, like-prefix is rarer than bare like, etc.).
  double EstimateSelectivity() const;

  bool operator==(const SourceFilter& other) const;
};

std::string_view SourceFilterOpName(SourceFilter::Op op);

}  // namespace scoop

#endif  // SCOOP_SQL_SOURCE_FILTER_H_
