// Exact statistics over recorded per-operation samples, and the interval
// arithmetic behind self time. Percentiles are taken from the raw samples
// (linear interpolation between closest ranks), never from bucketed
// histograms, so a change of a tenth is resolvable.
#ifndef PERFBENCH_SAMPLES_H_
#define PERFBENCH_SAMPLES_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// The q-quantile (0 <= q <= 1) of `values`; 0 for an empty set.
double Percentile(std::vector<double> values, double q);

// A half-open time interval [start, end) in nanoseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

// Total length covered by the union of `intervals` (overlaps counted once).
int64_t UnionLength(std::vector<Interval> intervals);

// A span's self time: its duration minus the part of it that the union of
// its children covers. Children may overlap each other (parallel scans)
// and nest inside one another; both are counted once.
int64_t SelfTime(const Interval& span, const std::vector<Interval>& children);

}  // namespace perfbench

#endif  // PERFBENCH_SAMPLES_H_
