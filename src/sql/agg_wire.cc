#include "sql/agg_wire.h"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/strings.h"

namespace scoop {

namespace aggwire {

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (i * 8)));
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (i * 8)));
}

namespace {
Status Truncated() {
  return Status::InvalidArgument("agg wire: truncated frame payload");
}
}  // namespace

Result<uint8_t> TakeU8(std::string_view* data) {
  if (data->empty()) return Truncated();
  uint8_t v = static_cast<uint8_t>((*data)[0]);
  data->remove_prefix(1);
  return v;
}

Result<uint32_t> TakeU32(std::string_view* data) {
  if (data->size() < 4) return Truncated();
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>((*data)[i])) << (i * 8);
  }
  data->remove_prefix(4);
  return v;
}

Result<uint64_t> TakeU64(std::string_view* data) {
  if (data->size() < 8) return Truncated();
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>((*data)[i])) << (i * 8);
  }
  data->remove_prefix(8);
  return v;
}

void PutValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kNull:
      out->push_back(0);
      break;
    case ValueType::kInt64:
      out->push_back(1);
      PutU64(static_cast<uint64_t>(v.AsInt64()), out);
      break;
    case ValueType::kDouble: {
      out->push_back(2);
      uint64_t bits;
      double d = v.AsDoubleExact();
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(bits, out);
      break;
    }
    case ValueType::kString:
      out->push_back(3);
      PutU32(static_cast<uint32_t>(v.AsString().size()), out);
      out->append(v.AsString());
      break;
  }
}

Result<Value> TakeValue(std::string_view* data) {
  SCOOP_ASSIGN_OR_RETURN(uint8_t tag, TakeU8(data));
  switch (tag) {
    case 0:
      return Value::Null();
    case 1: {
      SCOOP_ASSIGN_OR_RETURN(uint64_t bits, TakeU64(data));
      return Value(static_cast<int64_t>(bits));
    }
    case 2: {
      SCOOP_ASSIGN_OR_RETURN(uint64_t bits, TakeU64(data));
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case 3: {
      SCOOP_ASSIGN_OR_RETURN(uint32_t len, TakeU32(data));
      if (data->size() < len) return Truncated();
      Value v(data->substr(0, len));
      data->remove_prefix(len);
      return v;
    }
    default:
      return Status::InvalidArgument("agg wire: unknown value tag");
  }
}

}  // namespace aggwire

std::string AggPushdownSpec::GroupParam() const {
  return Join(group_specs, ",");
}

std::string AggPushdownSpec::AggsParam() const {
  std::string out;
  for (size_t i = 0; i < agg_kinds.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += AggKindName(agg_kinds[i]);
    out.push_back(':');
    out += agg_columns[i];
  }
  return out;
}

Result<AggPushdownSpec> ParseAggPushdownSpec(std::string_view group_param,
                                             std::string_view aggs_param) {
  AggPushdownSpec spec;
  if (!group_param.empty()) {
    // A substr group spec contains a comma inside its parentheses, so
    // split on depth-zero commas only.
    size_t start = 0;
    int depth = 0;
    for (size_t i = 0; i <= group_param.size(); ++i) {
      if (i == group_param.size() || (group_param[i] == ',' && depth == 0)) {
        if (i == start) {
          return Status::InvalidArgument("agg spec: empty group expression");
        }
        spec.group_specs.emplace_back(group_param.substr(start, i - start));
        start = i + 1;
      } else if (group_param[i] == '(') {
        ++depth;
      } else if (group_param[i] == ')') {
        --depth;
      }
    }
    if (depth != 0) {
      return Status::InvalidArgument("agg spec: unbalanced group expression");
    }
  }
  if (aggs_param.empty()) {
    return Status::InvalidArgument("agg spec: no aggregates");
  }
  for (std::string_view item : Split(aggs_param, ',')) {
    size_t colon = item.find(':');
    if (colon == std::string_view::npos || colon + 1 >= item.size()) {
      return Status::InvalidArgument("agg spec: malformed aggregate item: " +
                                     std::string(item));
    }
    SCOOP_ASSIGN_OR_RETURN(AggKind kind,
                           AggKindFromName(item.substr(0, colon)));
    std::string column(item.substr(colon + 1));
    if (column == "*" && kind != AggKind::kCount) {
      return Status::InvalidArgument("agg spec: '*' is only valid in count()");
    }
    spec.agg_kinds.push_back(kind);
    spec.agg_columns.push_back(std::move(column));
  }
  return spec;
}

void AppendGroupKeyNull(std::string* out) { out->append("n\x1f", 2); }

void AppendGroupKeyInt64(int64_t v, std::string* out) {
  char buf[24];
  buf[0] = 'i';
  char* end = std::to_chars(buf + 1, buf + sizeof(buf) - 1, v).ptr;
  *end++ = '\x1f';
  out->append(buf, static_cast<size_t>(end - buf));
}

void AppendGroupKeyDouble(double v, std::string* out) {
  char buf[40];
  int n = std::snprintf(buf, sizeof(buf), "d%a\x1f", v);
  out->append(buf, static_cast<size_t>(n));
}

void AppendGroupKeyString(std::string_view v, std::string* out) {
  out->push_back('s');
  out->append(v);
  out->push_back('\x1f');
}

std::string SerializeGroupKey(const Row& key) {
  std::string out;
  for (const Value& v : key) {
    switch (v.type()) {
      case ValueType::kNull:
        AppendGroupKeyNull(&out);
        break;
      case ValueType::kInt64:
        AppendGroupKeyInt64(v.AsInt64(), &out);
        break;
      case ValueType::kDouble:
        AppendGroupKeyDouble(v.AsDoubleExact(), &out);
        break;
      case ValueType::kString:
        AppendGroupKeyString(v.AsString(), &out);
        break;
    }
  }
  return out;
}

void AppendAggPartialFrame(const AggPartialFrame& frame, std::string* out) {
  std::string payload;
  uint32_t num_keys =
      frame.groups.empty()
          ? 0
          : static_cast<uint32_t>(frame.groups.front().key_values.size());
  aggwire::PutU32(num_keys, &payload);
  aggwire::PutU32(static_cast<uint32_t>(frame.agg_kinds.size()), &payload);
  for (AggKind kind : frame.agg_kinds) {
    payload.push_back(static_cast<char>(kind));
  }
  aggwire::PutU64(static_cast<uint64_t>(frame.rows), &payload);
  aggwire::PutU32(static_cast<uint32_t>(frame.groups.size()), &payload);
  for (const AggPartialGroup& group : frame.groups) {
    for (const Value& v : group.key_values) aggwire::PutValue(v, &payload);
    for (const AggState& state : group.states) state.EncodeTo(&payload);
  }
  out->append(kAggWireMagic);
  aggwire::PutU32(static_cast<uint32_t>(payload.size()), out);
  out->append(payload);
}

namespace {

Status DecodeAggPayload(std::string_view payload, AggPartialFrame* frame) {
  SCOOP_ASSIGN_OR_RETURN(uint32_t num_keys, aggwire::TakeU32(&payload));
  SCOOP_ASSIGN_OR_RETURN(uint32_t num_aggs, aggwire::TakeU32(&payload));
  AggPartialFrame out;
  out.agg_kinds.reserve(num_aggs);
  for (uint32_t i = 0; i < num_aggs; ++i) {
    SCOOP_ASSIGN_OR_RETURN(uint8_t kind, aggwire::TakeU8(&payload));
    if (kind > static_cast<uint8_t>(AggKind::kFirstValue)) {
      return Status::InvalidArgument("agg wire: unknown aggregate kind");
    }
    out.agg_kinds.push_back(static_cast<AggKind>(kind));
  }
  SCOOP_ASSIGN_OR_RETURN(uint64_t rows, aggwire::TakeU64(&payload));
  out.rows = static_cast<int64_t>(rows);
  SCOOP_ASSIGN_OR_RETURN(uint32_t num_groups, aggwire::TakeU32(&payload));
  out.groups.reserve(num_groups);
  for (uint32_t g = 0; g < num_groups; ++g) {
    AggPartialGroup group;
    group.key_values.reserve(num_keys);
    for (uint32_t k = 0; k < num_keys; ++k) {
      SCOOP_ASSIGN_OR_RETURN(Value v, aggwire::TakeValue(&payload));
      group.key_values.push_back(std::move(v));
    }
    group.states.reserve(num_aggs);
    for (uint32_t a = 0; a < num_aggs; ++a) {
      SCOOP_ASSIGN_OR_RETURN(AggState state, AggState::DecodeFrom(&payload));
      group.states.push_back(std::move(state));
    }
    out.groups.push_back(std::move(group));
  }
  if (!payload.empty()) {
    return Status::InvalidArgument("agg wire: trailing bytes in frame");
  }
  *frame = std::move(out);
  return Status::OK();
}

}  // namespace

Result<bool> AggWireReader::Next(AggPartialFrame* frame) {
  size_t header = kAggWireMagic.size() + 4;
  if (buf_.size() - pos_ < header) return false;
  std::string_view view(buf_);
  if (view.substr(pos_, kAggWireMagic.size()) != kAggWireMagic) {
    return Status::InvalidArgument("agg wire: bad frame magic");
  }
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(static_cast<uint8_t>(
                       buf_[pos_ + kAggWireMagic.size() + i]))
                   << (i * 8);
  }
  if (buf_.size() - pos_ - header < payload_len) return false;
  Status decoded =
      DecodeAggPayload(view.substr(pos_ + header, payload_len), frame);
  if (!decoded.ok()) return decoded;
  pos_ += header + payload_len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 20)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

}  // namespace scoop
