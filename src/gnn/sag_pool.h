// Self-attention graph pooling (Lee et al. [28], paper §III-C).
//
// A single-output GCN predicts a score per node:
//   α = SCORE(X_prop, A_prop)
// The top ⌈ratio·N⌉ nodes by α are kept and their features are gated
// by tanh(α), so the scorer receives gradient. hw2vec runs no layer
// after the pool, only the readout, so the pooled subgraph's adjacency
// would never be read and is not built.
#pragma once

#include <vector>

#include "gnn/featurize.h"
#include "gnn/gcn_layer.h"
#include "tensor/tape.h"

namespace gnn4ip::gnn {

class SagPool {
 public:
  /// `dim` is the node-embedding width entering the pool; `ratio` the
  /// keep fraction in (0, 1].
  SagPool(std::size_t dim, float ratio, util::Rng& rng);

  struct Result {
    tensor::Var x;                   // gated kept rows, in kept order
    std::vector<std::size_t> kept;   // original node indices, ascending
  };

  /// Pool the propagated node embeddings `x` (one row per node of `g`)
  /// on the tape (training path).
  [[nodiscard]] Result forward(tensor::Tape& tape, const GraphTensors& g,
                               tensor::Var x);

  /// Inference: the same arithmetic with no tape. Returns the gated kept
  /// rows, bit-identical to the tape path's Result::x.
  [[nodiscard]] tensor::Matrix forward(const GraphTensors& g,
                                       const tensor::Matrix& x) const;

  [[nodiscard]] GcnLayer& scorer() { return scorer_; }
  [[nodiscard]] const GcnLayer& scorer() const { return scorer_; }
  [[nodiscard]] float ratio() const { return ratio_; }

 private:
  /// Ascending indices of the top ⌈ratio·n⌉ rows of the n×1 `scores`
  /// (stable: ties keep the lower index).
  [[nodiscard]] std::vector<std::size_t> top_k(
      const tensor::Matrix& scores) const;

  GcnLayer scorer_;
  float ratio_;
};

}  // namespace gnn4ip::gnn
