#ifndef SCOOP_CSV_AGG_STORLET_H_
#define SCOOP_CSV_AGG_STORLET_H_

#include <memory>
#include <string>

#include "storlets/storlet.h"

namespace scoop {

// Partial-aggregation pushdown — the paper's §IV example of the object
// store "perform[ing] aggregations on individual object requests to
// facilitate the construction of graphs from a large dataset", and the
// general §VII observation that any computation running independently
// over disjoint parts of the dataset can be pushed down.
//
// Parameters:
//   schema    — "name:type,..." of the object's columns (required)
//   group     — comma-separated grouping specs (optional; absent means
//               one global group). CSV mode takes bare column names;
//               partials mode also accepts "substr(col,pos,len)" over
//               string columns (AggPushdownSpec::GroupParam rendering)
//   aggs      — comma-separated "<fn>:<column>" specs; count accepts "*"
//               as column (required). CSV mode allows sum/min/max/count
//               (avg and first_value do not merge as single finalized
//               values); partials mode additionally allows avg, whose
//               (sum,count) state merges fine, and first_value, whose
//               state merges in partition order
//   selection — serialized SourceFilter applied before aggregating
//   output    — "csv" (default) or "partials"
//
// Input is CSV text, the one format storlet stages exchange.
//
// Both modes fold records with the driver's own GroupFold
// (sql/group_fold.h). Output, csv mode: rows "<group values...>,<agg
// values...>", one per group, with group columns read as raw strings
// (empty as null) and sorted by SerializeGroupKey; sum/count over
// integer columns stay integral. Output, partials mode: one SAG1 frame
// (sql/agg_wire.h) of typed group keys + mergeable AggStates, sorted by
// SerializeGroupKey. Both are *partial* results for one object/range;
// the compute side merges partials across requests with the AggState
// machinery in sql/aggregates.h. Records fold in object order, so a
// partials-mode first_value state holds the range's first record.
class GroupAggStorlet : public Storlet {
 public:
  static constexpr char kName[] = "aggstorlet";

  std::string name() const override { return kName; }

  Status Invoke(StorletInputStream& input, StorletOutputStream& output,
                const StorletParams& params, StorletLogger& logger) override;

  static std::unique_ptr<Storlet> Make() {
    return std::make_unique<GroupAggStorlet>();
  }
};

}  // namespace scoop

#endif  // SCOOP_CSV_AGG_STORLET_H_
