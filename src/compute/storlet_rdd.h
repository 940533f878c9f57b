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

  // Concatenated outputs (convenience for text-producing storlets).
  Result<std::string> CollectConcatenated();

  // Fully-streaming form: the storlet's output for each object is handed
  // to `consume` chunk by chunk as it is produced, never materialized.
  // Chunks of one object arrive in order; objects run as parallel tasks,
  // so `consume` must tolerate interleaving across objects (it is called
  // concurrently from pool workers).
  Status ForEachChunk(
      const std::function<Status(const std::string& object,
                                 std::string_view chunk,
                                 bool executed_at_store)>& consume);

 private:
  // The per-object task: invokes the storlet on `object` under its own
  // root span and drains the output through `consume`. Sets
  // `executed_at_store` before the first chunk (false: the store declined
  // and the body is the raw object).
  Status InvokeOn(const std::string& object, bool* executed_at_store,
                  const std::function<Status(std::string_view)>& consume);

  SwiftClient* client_;
  ThreadPool* pool_;
  std::string container_;
  std::string prefix_;
  std::string storlet_;
  StorletParams params_;
};

}  // namespace scoop

#endif  // SCOOP_COMPUTE_STORLET_RDD_H_
