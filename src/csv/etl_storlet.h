#ifndef SCOOP_CSV_ETL_STORLET_H_
#define SCOOP_CSV_ETL_STORLET_H_

#include <memory>
#include <string>

#include "storlets/storlet.h"

namespace scoop {

// ETL-on-upload storlet (paper §V-A): runs on the PUT data path, so raw
// sensor data is cleansed and reshaped once, at ingestion time, instead of
// by every Spark workload afterwards.
//
// Transformations, controlled by parameters:
//   schema          — "name:type,..." spec of the *incoming* columns
//                     (required)
//   trim            — "true": strip surrounding whitespace from fields
//                     (default true)
//   drop_malformed  — "true": also drop rows whose numeric fields fail
//                     to parse; "false" keeps them (default true). A row
//                     whose field count mismatches the schema is dropped
//                     either way: no reader downstream could parse it.
//   split_column    — name of a column to split into several columns
//   split_separator — separator used inside split_column (default ";")
//   split_names     — comma-separated names of the new columns (their
//                     count defines how many pieces are produced; missing
//                     pieces become empty fields)
//
// The storlet normalizes CRLF line endings and drops blank and
// whitespace-only lines. It reads its input through the shared windowed
// CSV scan (CsvWindowStream), so records are cut at every '\n' exactly
// like the GET storlets' and a quoted field never spans lines. A record
// that needs no change (no quote, no split column, no field that trim
// would shorten) is written out as its own bytes; the rest are
// re-rendered with WriteCsvRecord. The resulting schema and the number
// of dropped rows are attached as response metadata ("schema",
// "rows-dropped").
class EtlStorlet : public Storlet {
 public:
  static constexpr char kName[] = "etlstorlet";

  std::string name() const override { return kName; }

  Status Invoke(StorletInputStream& input, StorletOutputStream& output,
                const StorletParams& params, StorletLogger& logger) override;

  static std::unique_ptr<Storlet> Make() {
    return std::make_unique<EtlStorlet>();
  }
};

}  // namespace scoop

#endif  // SCOOP_CSV_ETL_STORLET_H_
