// Executes an optimised inference graph with a reusable scratch arena.
//
// An Executor owns one arena of output-buffer slots (assigned by the
// plan-exec pass; a trivial one-slot-per-node fallback covers unplanned
// graphs).  Buffers only ever grow, so after the first run at a given
// batch size the hot path performs no allocations.  Conv1D patch scratch
// lives in a thread-local arena with the same grow-only policy, because the
// conv op row-partitions large batches across the global thread pool.
//
// Executors are NOT thread-safe (the arena is reused across nodes); for
// concurrent forwards, Sequential keeps a pool of executors and hands one
// per call.  The graph itself is shared read-only.
//
// BatchNorm's per-feature sqrt(running_var + eps) is cached per node and
// recomputed at the start of a run only when the running var or eps differ
// bitwise from the copy it was derived from — running stats then flow into
// the compiled graph with no explicit invalidation, and hoisting the sqrt
// out of the per-element loop is bitwise identical (sqrt and the division
// are exactly rounded) while removing batch*features sqrt calls per layer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/ir/graph.hpp"
#include "nn/mat.hpp"

namespace mldist::nn::ir {

class Executor {
 public:
  explicit Executor(std::shared_ptr<const Graph> graph);

  const Graph& graph() const { return *graph_; }

  /// Inference forward for one batch; bitwise equal to the legacy
  /// layer-by-layer Sequential forward under every dispatch backend.
  Mat run(const Mat& x);

 private:
  const float* buffer_of(int id, const Mat& x) const;
  std::size_t width_of(const Node& n, const Mat& x) const;

  std::shared_ptr<const Graph> graph_;
  std::vector<int> slot_of_;                 ///< node id -> slot (-1 = input)
  std::vector<std::vector<float>> slots_;    ///< grow-only output buffers
  /// Per node: sqrt(var + eps) and the (var, eps) it was derived from; see
  /// the file comment.
  struct NormCache {
    std::vector<float> var;
    float eps = 0.0f;
    std::vector<float> std;
  };
  std::vector<NormCache> norm_cache_;
  /// Per-node observability, resolved once: counter id for
  /// nn.ir.node.<i>.<kind>.forward_ns plus the span name.
  struct NodeObs {
    std::size_t ns = 0;
    std::string span_name;
  };
  std::vector<NodeObs> node_obs_;
};

}  // namespace mldist::nn::ir
