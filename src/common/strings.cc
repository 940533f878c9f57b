#include "common/strings.h"

#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cctype>

namespace scoop {

std::vector<std::string_view> Split(std::string_view input, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(input.substr(start));
      break;
    }
    out.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitCopy(std::string_view input, char sep) {
  std::vector<std::string> out;
  for (std::string_view part : Split(input, sep)) out.emplace_back(part);
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsSpace(s[b])) ++b;
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty integer");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::OutOfRange("integer out of range: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: " + buf);
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty double");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return Status::OutOfRange("double out of range: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a double: " + buf);
  }
  return v;
}

bool FastParseDouble(std::string_view s, double* out) {
  static constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6,
                                      1e7, 1e8, 1e9, 1e10, 1e11, 1e12,
                                      1e13, 1e14, 1e15};
  size_t i = 0;
  bool neg = false;
  if (i < s.size() && s[i] == '-') {
    neg = true;
    ++i;
  }
  uint64_t mantissa = 0;
  int digits = 0;
  int frac = 0;
  const size_t int_start = i;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    mantissa = mantissa * 10 + static_cast<uint64_t>(s[i] - '0');
    ++digits;
  }
  if (i == int_start) return false;  // ".5", "-", "inf", ...
  if (i < s.size() && s[i] == '.') {
    ++i;
    const size_t frac_start = i;
    for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
      mantissa = mantissa * 10 + static_cast<uint64_t>(s[i] - '0');
      ++digits;
      ++frac;
    }
    if (i == frac_start) return false;  // "1." — strtod differs, fall back
  }
  if (i != s.size() || digits > 15) return false;
  double v = static_cast<double>(mantissa);
  if (frac > 0) v /= kPow10[frac];
  *out = neg ? -v : v;
  return true;
}

bool FastParseInt64(std::string_view s, int64_t* out) {
  if (s.empty() || s.size() > 18) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = static_cast<int64_t>(v);
  return true;
}

bool LikeMatch(std::string_view s, std::string_view pattern) {
  // Iterative greedy matcher with backtracking on the last '%', the classic
  // O(n*m) wildcard algorithm.
  size_t si = 0, pi = 0;
  size_t star_p = std::string_view::npos;
  size_t star_s = 0;
  while (si < s.size()) {
    if (pi < pattern.size() &&
        (pattern[pi] == '_' || pattern[pi] == s[si])) {
      ++si;
      ++pi;
    } else if (pi < pattern.size() && pattern[pi] == '%') {
      star_p = pi++;
      star_s = si;
    } else if (star_p != std::string_view::npos) {
      pi = star_p + 1;
      si = ++star_s;
    } else {
      return false;
    }
  }
  while (pi < pattern.size() && pattern[pi] == '%') ++pi;
  return pi == pattern.size();
}

void AppendCsvField(std::string_view field, std::string* out) {
  if (field.find_first_of(",\"\n") == std::string_view::npos) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string FormatBytes(double bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 4) {
    bytes /= 1024.0;
    ++unit;
  }
  return StrFormat("%.2f %s", bytes, kUnits[unit]);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace scoop
