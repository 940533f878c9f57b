// The correctness oracle: every query result is checked against the
// single-process reference evaluator (ExecuteSqlOverRows over the
// generator's rows), and every tenant response body against the storlet
// pipeline run on the raw object.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "workload/generator.h"

namespace perfbench {

// Runs `fn` in a forked child and returns its strings. The references are
// computed there so the materialized rows never count towards the
// benchmark process's peak RSS. Call before any thread is started.
scoop::Result<std::vector<std::string>> RunInChild(
    const std::function<std::vector<std::string>()>& fn);

// Reference CSV results of `queries` over the dataset `config` describes.
// Every query filters one month ("date LIKE '2015-MM...'"), so each is
// evaluated over that month's rows only; a query naming no month sees all.
std::vector<std::string> ReferenceResults(const scoop::GeneratorConfig& config,
                                          const std::vector<std::string>& queries);

// Cell-wise CSV equality with a 1e-5 relative tolerance on numeric cells
// (the reference folds doubles sequentially, the cluster per partition).
bool CsvAlmostEqual(const std::string& got, const std::string& want);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
