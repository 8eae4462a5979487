// Graph IR for inference over nn models.
//
// A Graph is a flat dataflow graph lowered from an nn::Sequential: nodes
// carry an op kind, non-owning references to the source layer's parameters,
// explicit input edges, and per-sample feature widths.  The node vector is
// already a topological order (lowering appends producers before consumers
// and passes preserve the order), so "iterate nodes()" IS the schedule.
//
// A Residual wrapper lowers to its inner chain plus an explicit two-input
// kAdd node whose second edge skips back to the wrapper's input — the skip
// connection becomes a real edge instead of control flow, which is what
// lets the fusion passes reason about consumer counts.
//
// Parameters are referenced, never copied: a compiled graph always sees the
// current weights, so training steps and gradcheck perturbations need no
// cache invalidation.  The only derived quantity (BatchNorm's per-feature
// sqrt(var + eps)) is re-derived by the Executor at the start of any run
// whose running var or eps changed since its last one.
//
// Optimisation passes (nn/ir/pass.hpp) annotate nodes (fused_bn /
// fused_act / conv_algo / slot) and mark replaced nodes dead; compact()
// renumbers.  Every pass preserves the bitwise-determinism contract — the
// optimised graph's output is bitwise equal to the layer-by-layer forward
// it replaces (tests/kernel_equiv_test.cpp, label "ir").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/conv1d.hpp"
#include "kernels/gemm.hpp"
#include "nn/mat.hpp"

namespace mldist::nn {
class Layer;
class Sequential;
}  // namespace mldist::nn

namespace mldist::nn::ir {

enum class OpKind {
  kInput = 0,
  kDense,
  kConv1D,
  kBatchNorm,
  kActivation,
  kGlobalMaxPool,
  kAdd,
  kIdentity,
  kOpaque,  ///< delegates to Layer::forward (LSTM, tanh, sigmoid)
};

const char* op_kind_name(OpKind kind);

/// Non-owning references to a BatchNorm's inference parameters.
struct NormRef {
  const std::vector<float>* gamma = nullptr;
  const std::vector<float>* beta = nullptr;
  const std::vector<float>* mean = nullptr;
  const std::vector<float>* var = nullptr;
  float eps = 0.0f;

  bool valid() const { return gamma != nullptr; }
};

struct Node {
  OpKind kind = OpKind::kIdentity;
  std::string label;        ///< source layer name, e.g. "conv1d(1->32,k=3)"
  std::vector<int> inputs;  ///< producer node ids (kAdd has two)
  std::size_t in_width = 0;   ///< 0 = inherits the runtime batch width
  std::size_t out_width = 0;  ///< 0 = inherits the runtime batch width

  // kDense / kConv1D parameters (dense: in x out; conv: kernel*cin x cout).
  const Mat* weights = nullptr;
  const std::vector<float>* bias = nullptr;

  // kConv1D geometry; kGlobalMaxPool reuses length + cin(=channels).
  std::size_t length = 0;
  std::size_t cin = 0;
  std::size_t cout = 0;
  std::size_t kernel = 0;
  kernels::Conv1DAlgo conv_algo = kernels::Conv1DAlgo::kIm2col;

  // kBatchNorm parameters — on a kDense/kConv1D node when fused_bn is set.
  NormRef norm;

  // kActivation parameters — applied as a fused epilogue when fused_act.
  kernels::Activation act = kernels::Activation::kNone;
  float alpha = 0.3f;

  Layer* opaque = nullptr;  ///< kOpaque delegate

  bool fused_bn = false;   ///< batchnorm runs inside this node's epilogue
  bool fused_act = false;  ///< activation runs inside this node's epilogue

  int slot = -1;  ///< output-buffer slot (plan-exec pass; -1 = unplanned)
  bool dead = false;
};

class Graph {
 public:
  /// Lower `model` into a fresh graph.  `input_width` 0 means "infer from
  /// the first layer that declares one" (Dense/Conv1D/BatchNorm/LSTM/pool);
  /// a model of only width-polymorphic layers keeps width 0 and resolves it
  /// from the batch at execution time.
  static Graph lower(Sequential& model, std::size_t input_width = 0);

  std::vector<Node>& nodes() { return nodes_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  int output() const { return output_; }
  void set_output(int id) { output_ = id; }

  int add_node(Node node);

  /// Live consumers of node `id`, counting the graph output as one.
  std::size_t consumer_count(int id) const;

  /// Rewire every use of `from` (edges and the graph output) to `to`.
  void replace_uses(int from, int to);

  /// Drop dead nodes and renumber edges.  Passes mark `dead` instead of
  /// erasing so ids stay stable while they iterate.
  void compact();

  /// Buffer slots assigned by the plan-exec pass (0 when it has not run).
  std::size_t slot_count() const { return slot_count_; }
  void set_slot_count(std::size_t n) { slot_count_ = n; }

  /// Stable text rendering, golden-tested via --dump-ir.
  std::string to_text() const;

  /// CRC-32 over op kinds, edges, and shapes of the lowered graph.  Fusion
  /// annotations and kernel plans are excluded: the hash pins the
  /// architecture, not the optimisation level, so it is stable across pass
  /// pipelines and dispatch backends.  nn::save_params stamps it so
  /// parameters cannot load into a structurally different model.
  std::uint32_t topology_hash() const;

 private:
  std::vector<Node> nodes_;
  int output_ = -1;
  std::size_t slot_count_ = 0;
};

}  // namespace mldist::nn::ir
