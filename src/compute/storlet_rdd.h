#ifndef SCOOP_COMPUTE_STORLET_RDD_H_
#define SCOOP_COMPUTE_STORLET_RDD_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "objectstore/cluster.h"
#include "storlets/storlet.h"

namespace scoop {

// The Spark-Storlets RDD of the paper's §VII: a programmatic way for a
// Spark job to explicitly invoke a storlet on every object of a dataset,
// holding the invocation outputs as its distributed collection. It
// bypasses the Hadoop layer entirely: partitioning is object-aware (one
// task per object) rather than derived from an HDFS chunk size.
class StorletRdd {
 public:
  StorletRdd(SwiftClient* client, ThreadPool* pool, std::string container,
             std::string prefix, std::string storlet, StorletParams params)
      : client_(client),
        pool_(pool),
        container_(std::move(container)),
        prefix_(std::move(prefix)),
        storlet_(std::move(storlet)),
        params_(std::move(params)) {}

  struct PartitionOutput {
    std::string object;
    std::string output;          // the storlet's output stream for the object
    bool executed_at_store = false;
  };

  // Runs the storlet on every object (one pool task each) and collects the
  // outputs, ordered by object name. Each partition is drained off the
  // store chunk by chunk; only the accumulated output is materialized.
  Result<std::vector<PartitionOutput>> Collect();

 private:
  // The per-object task: invokes the storlet on `out->object` under its
  // own root span, drains the output into `out->output` and sets
  // `out->executed_at_store` (false: the store declined and the body is
  // the raw object).
  Status InvokeOn(PartitionOutput* out);

  SwiftClient* client_;
  ThreadPool* pool_;
  std::string container_;
  std::string prefix_;
  std::string storlet_;
  StorletParams params_;
};

}  // namespace scoop

#endif  // SCOOP_COMPUTE_STORLET_RDD_H_
