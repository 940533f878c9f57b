// Length-prefixed wire encoding of partial aggregate states for the
// storlet pipeline, which ships GROUP BY results as kilobytes of
// mergeable states instead of megabytes of rows. The
// storlet-side partial aggregator emits one frame per object; the driver
// decodes the frames and merges the states with AggState::Merge, which
// is byte-for-byte the same arithmetic the driver would have run over
// the raw rows (DESIGN.md §3i).
//
// Frame layout (all integers little-endian):
//   "SAG1"                       magic
//   u32  payload_len
//   payload:
//     u32  num_keys              group-key values per group
//     u32  num_aggs              aggregate states per group
//     per aggregate: u8 AggKind
//     u64  rows                  selection-surviving rows behind the states
//     u32  num_groups
//     per group:
//       num_keys tagged values   (typed group-key values, see below)
//       num_aggs AggState encodings (AggState::EncodeTo)
//
// Tagged value: u8 tag — 0 null, 1 int64 (u64 two's complement),
// 2 double (u64 IEEE-754 bits), 3 string (u32 len + bytes).
#ifndef SCOOP_SQL_AGG_WIRE_H_
#define SCOOP_SQL_AGG_WIRE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "sql/aggregates.h"
#include "sql/value.h"

namespace scoop {

inline constexpr std::string_view kAggWireMagic = "SAG1";

// What the planner asks the partial-agg storlet to compute. Group specs
// are either a bare scan-schema column name or `substr(col,pos,len)`
// over a string column (the shape Table-I's monthly rollups need); agg
// columns are bare column names, "*" for count(*).
struct AggPushdownSpec {
  std::vector<std::string> group_specs;
  std::vector<AggKind> agg_kinds;
  std::vector<std::string> agg_columns;

  // Storlet parameter renderings ("Group" / "Aggs"), e.g.
  // "substr(date,0,7)" and "avg:index,count:*".
  std::string GroupParam() const;
  std::string AggsParam() const;
};

// Parses the storlet-parameter renderings back into a spec (the
// storlet-side inverse of GroupParam/AggsParam).
Result<AggPushdownSpec> ParseAggPushdownSpec(std::string_view group_param,
                                             std::string_view aggs_param);

// One group of a decoded frame: typed key values + one state per agg.
struct AggPartialGroup {
  Row key_values;
  std::vector<AggState> states;
};

// One decoded SAG1 frame.
struct AggPartialFrame {
  std::vector<AggKind> agg_kinds;
  int64_t rows = 0;  // selection-surviving rows the states cover
  std::vector<AggPartialGroup> groups;
};

// Canonical serialization of a group-key row — the map key both the
// driver executor and the storlet group by, so group identity is decided
// by exactly one encoder on both sides. Each value appends a type tag
// ('n' null, 'i' decimal int64, 'd' "%a" double, 's' raw string) and a
// 0x1f separator. SerializeGroupKey and the group fold (sql/group_fold.h)
// both go through the AppendGroupKey* encoder, so the key bytes, the
// std::map order and with it the no-ORDER-BY output order are the same
// on every path.
std::string SerializeGroupKey(const Row& key);
void AppendGroupKeyNull(std::string* out);
void AppendGroupKeyInt64(int64_t v, std::string* out);
void AppendGroupKeyDouble(double v, std::string* out);
void AppendGroupKeyString(std::string_view v, std::string* out);

// Appends one frame carrying `frame` to `out`.
void AppendAggPartialFrame(const AggPartialFrame& frame, std::string* out);

// Incremental frame decoder. Feed() accepts bytes in any chunking, so a
// frame survives however the ByteStream transports re-chunk it.
class AggWireReader {
 public:
  void Feed(std::string_view data) { buf_.append(data); }

  // Decodes the next complete frame into `frame`. Returns false when the
  // buffered bytes do not yet hold a whole frame, an error on malformed
  // frames.
  Result<bool> Next(AggPartialFrame* frame);

  // Bytes buffered but not yet consumed by a decoded frame. Non-zero at
  // EOF means a truncated trailing frame.
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
};

// Low-level codec shared with AggState::EncodeTo/DecodeFrom. The Take*
// readers consume from the front of *data and fail on truncation.
namespace aggwire {
void PutU32(uint32_t v, std::string* out);
void PutU64(uint64_t v, std::string* out);
void PutValue(const Value& v, std::string* out);
Result<uint8_t> TakeU8(std::string_view* data);
Result<uint32_t> TakeU32(std::string_view* data);
Result<uint64_t> TakeU64(std::string_view* data);
Result<Value> TakeValue(std::string_view* data);
}  // namespace aggwire

}  // namespace scoop

#endif  // SCOOP_SQL_AGG_WIRE_H_
