#ifndef SCOOP_CSV_CSV_STORLET_H_
#define SCOOP_CSV_CSV_STORLET_H_

#include <memory>
#include <string>

#include "storlets/storlet.h"

namespace scoop {

// The paper's CSVStorlet: streams locally-stored CSV data through the
// projection and selection filters Catalyst extracted, emitting only the
// useful rows and columns (§V-A).
//
// Parameters (all storlet parameters arrive lowercased):
//   schema     — "name:type,..." spec of the object's columns (required)
//   projection — comma-separated column names to keep, in output order;
//                absent/empty keeps every column
//   selection  — serialized SourceFilter s-expression; absent keeps all rows
//   limit      — stop after this many selection-surviving rows and stop
//                consuming input (LIMIT pushdown; sets "limit-hit"
//                metadata when the cap fired)
//
// Objects are stored without a header line; the schema always travels in
// the request metadata (the convention the data generator and Spark-CSV
// layer of this repository share). Every parameter shape, `schema` alone
// included, drops blank lines and records whose field count differs from
// the schema, and ends each output record with a bare '\n'.
//
// Row-only filtering takes a fast path that copies matching records
// verbatim, which is why row selectivity outperforms column selectivity
// in the paper's Fig. 5 — discarding a whole row is cheaper than
// re-concatenating a subset of its columns.
class CsvStorlet : public Storlet {
 public:
  static constexpr char kName[] = "csvstorlet";

  std::string name() const override { return kName; }

  Status Invoke(StorletInputStream& input, StorletOutputStream& output,
                const StorletParams& params, StorletLogger& logger) override;

  static std::unique_ptr<Storlet> Make() {
    return std::make_unique<CsvStorlet>();
  }
};

}  // namespace scoop

#endif  // SCOOP_CSV_CSV_STORLET_H_
