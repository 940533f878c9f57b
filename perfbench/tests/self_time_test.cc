// Self-test of the benchmark's statistics: self time over a synthetic span
// tree whose children overlap (parallel partition scans) and nest (a GET
// inside a scan), plus the exact percentile. Exits non-zero on failure.
#include <cstdio>
#include <vector>

#include "samples.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::Interval;

  // A query span [0, 100) with four parallel scans: [10, 40) and [20, 50)
  // overlap, [30, 35) nests inside both, [60, 70) stands alone, and
  // [90, 120) runs past the parent's end. Covered: [10, 50) + [60, 70) +
  // [90, 100) = 60, so self time is 40. Summing children would give 105
  // and a negative self time.
  Interval query{0, 100};
  std::vector<Interval> scans = {
      {10, 40}, {20, 50}, {30, 35}, {60, 70}, {90, 120}};
  Expect(perfbench::SelfTime(query, scans) == 40, "overlapping children");
  Expect(perfbench::UnionLength(scans) == 80, "union of children");

  // Nested level: a scan [10, 40) with two GETs, one inside the other.
  Expect(perfbench::SelfTime({10, 40}, {{12, 30}, {15, 20}}) == 12,
         "nested children");
  // Children entirely outside the span and empty intervals cover nothing.
  Expect(perfbench::SelfTime({0, 10}, {{20, 30}, {5, 5}}) == 10,
         "disjoint and empty children");
  // Identical children count once; a child covering the span leaves 0.
  Expect(perfbench::SelfTime({0, 10}, {{0, 10}, {0, 10}}) == 0,
         "full cover");
  Expect(perfbench::SelfTime({0, 10}, {}) == 10, "leaf span");

  Expect(perfbench::Percentile({}, 0.5) == 0.0, "empty percentile");
  Expect(perfbench::Percentile({3, 1, 2}, 0.5) == 2.0, "median");
  Expect(perfbench::Percentile({1, 2, 3, 4}, 0.5) == 2.5, "even median");
  Expect(perfbench::Percentile({0, 10}, 0.95) == 9.5, "interpolated p95");

  if (failures == 0) std::printf("perfbench self-test: ok\n");
  return failures == 0 ? 0 : 1;
}
