#ifndef SCOOP_SQL_AGGREGATES_H_
#define SCOOP_SQL_AGGREGATES_H_

#include <string_view>

#include "common/result.h"
#include "sql/value.h"

namespace scoop {

// Aggregate functions supported by the executor (the set used by the
// paper's GridPocket queries plus avg).
enum class AggKind { kSum, kMin, kMax, kCount, kAvg, kFirstValue };

Result<AggKind> AggKindFromName(std::string_view name);
std::string_view AggKindName(AggKind kind);

// A mergeable partial aggregation state. Tasks accumulate one state per
// (group, aggregate) on their partition; the driver merges partials in
// partition order and finalizes — the split that makes the aggregation
// distributable across Spark-style tasks.
class AggState {
 public:
  // Folds one input value in. Nulls are ignored by every aggregate except
  // first_value, which (like Spark's default ignoreNulls=false) captures
  // the first row's value even when null, and count(*), whose caller
  // passes a non-null dummy per row.
  void Update(AggKind kind, const Value& v);

  // True when no further Update can change the state: a first_value
  // that already holds its row. The group fold skips such inputs
  // unparsed.
  bool Settled(AggKind kind) const {
    return kind == AggKind::kFirstValue && has_first_;
  }

  // Folds another partial state in. For first_value, `this` is the state
  // of the earlier partition and wins when it saw any row.
  void Merge(AggKind kind, const AggState& other);

  // Produces the final value (null for empty sum/min/max/avg groups, 0 for
  // empty count).
  Value Final(AggKind kind) const;

  // Wire codec for shipping partial states driver-ward (sql/agg_wire.h
  // frames). EncodeTo appends the state; DecodeFrom consumes one state
  // from the front of *data. Decode(Encode(s)) reproduces s exactly, so
  // merging shipped states is bit-identical to merging local ones.
  void EncodeTo(std::string* out) const;
  static Result<AggState> DecodeFrom(std::string_view* data);

 private:
  // sum/avg/count accumulation; integral sums stay exact in int64 until a
  // double value arrives. Integer addition wraps (two's complement, like
  // Spark's non-ANSI mode) so adversarial inputs cannot trip signed UB.
  int64_t int_sum_ = 0;
  double double_sum_ = 0.0;
  bool sum_is_integral_ = true;
  int64_t count_ = 0;
  // min/max
  Value extreme_;
  bool has_extreme_ = false;
  // first_value
  Value first_;
  bool has_first_ = false;
};

}  // namespace scoop

#endif  // SCOOP_SQL_AGGREGATES_H_
