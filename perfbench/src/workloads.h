// The benchmark's four workloads over the real stack (ScoopCluster,
// ScoopSession, SwiftClient, TcpFabric). Each run builds its inputs from
// the seed alone, measures for a fixed wall time, checks every result
// against the oracle, and reports metrics by name and unit.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Traced run: an untraced phase, then the same length with the probes
  // recording every request and scan; reports per-layer metrics.
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end (untraced phase)
  std::vector<Metric> layers;   // per-layer (traced phase)
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a wrong or failed operation; keeps the first few messages.
  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

const std::vector<std::string>& WorkloadNames();

scoop::Result<Report> RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
