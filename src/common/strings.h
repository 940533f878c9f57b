#ifndef SCOOP_COMMON_STRINGS_H_
#define SCOOP_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scoop {

// Splits `input` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> Split(std::string_view input, char sep);

// Splits and copies each field into an owned string.
std::vector<std::string> SplitCopy(std::string_view input, char sep);

// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// ASCII whitespace, as std::isspace reads it in the "C" locale: ' ',
// '\t', '\n', '\v', '\f' and '\r'.
inline bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

// ASCII-lowercases a copy of `s`.
std::string ToLower(std::string_view s);

// Case-sensitive prefix / suffix / containment tests.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool Contains(std::string_view s, std::string_view needle);

// Strict integer / floating-point parsers: the whole input must be consumed.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

// Allocation-free exact fast path for the common `[-]digits[.digits]`
// shape with at most 15 total digits. Returns false (leaving *out
// untouched) on any other shape — exponents, hex, inf/nan, surrounding
// whitespace, 16+ digits — which the caller must route to ParseDouble.
// When it returns true the result is bit-identical to ParseDouble's:
// mantissa and power of ten are both exactly representable, so the
// single IEEE division is correctly rounded, same as strtod. Hot scan
// and filter loops use this; see csv/batch_reader.cc.
bool FastParseDouble(std::string_view s, double* out);

// Allocation-free fast path for the common CSV integer shape: 1 to 18
// ASCII digits, no sign. Returns false (leaving *out untouched) on any
// other shape — signs, whitespace, 19+ digits that might overflow — which
// the caller must route to ParseInt64; when it returns true the result
// equals ParseInt64's.
bool FastParseInt64(std::string_view s, int64_t* out);

// Matches `s` against a SQL LIKE `pattern` where '%' matches any run of
// characters and '_' matches exactly one character. Case-sensitive, like
// Spark SQL's default collation.
bool LikeMatch(std::string_view s, std::string_view pattern);

// Appends `field` to `out` as one CSV field, RFC-4180 quoting it (and
// doubling embedded quotes) when it contains a comma, quote, or newline.
// The single escaping routine shared by every CSV writer in the repo —
// row writers, the batch serializer, and result rendering — so the
// dialects cannot drift apart.
void AppendCsvField(std::string_view field, std::string* out);

// Renders a byte count with binary units ("1.5 GiB").
std::string FormatBytes(double bytes);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace scoop

#endif  // SCOOP_COMMON_STRINGS_H_
