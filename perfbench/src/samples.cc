#include "samples.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int64_t UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t total = 0;
  bool open = false;
  Interval run;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= run.end) {
      run.end = std::max(run.end, iv.end);
      continue;
    }
    if (open) total += run.end - run.start;
    run = iv;
    open = true;
  }
  if (open) total += run.end - run.start;
  return total;
}

int64_t SelfTime(const Interval& span, const std::vector<Interval>& children) {
  std::vector<Interval> clipped = children;
  for (Interval& iv : clipped) {
    iv.start = std::max(iv.start, span.start);
    iv.end = std::min(iv.end, span.end);
  }
  int64_t duration = std::max<int64_t>(span.end - span.start, 0);
  return duration - UnionLength(std::move(clipped));
}

}  // namespace perfbench
