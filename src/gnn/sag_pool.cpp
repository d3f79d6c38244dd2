#include "gnn/sag_pool.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/contract.h"

namespace gnn4ip::gnn {
namespace {

void check_rows(const GraphTensors& g, std::size_t n) {
  GNN4IP_ENSURE(n > 0, "SagPool on empty graph");
  GNN4IP_ENSURE(n == g.num_nodes,
                "SagPool: node embedding rows != graph node count");
}

}  // namespace

SagPool::SagPool(std::size_t dim, float ratio, util::Rng& rng)
    : scorer_(dim, 1, rng), ratio_(ratio) {
  GNN4IP_ENSURE(ratio > 0.0F && ratio <= 1.0F,
                "pooling ratio must be in (0, 1]");
}

std::vector<std::size_t> SagPool::top_k(const tensor::Matrix& scores) const {
  const std::size_t n = scores.rows();
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(ratio_ * static_cast<float>(n))));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&scores](std::size_t a, std::size_t b) {
                     return scores.at(a, 0) > scores.at(b, 0);
                   });
  std::vector<std::size_t> kept(order.begin(),
                                order.begin() + static_cast<long>(k));
  // Kept rows stay in original node order, so the pooled rows (and a
  // readout's tie-breaks) do not depend on the score ranking.
  std::sort(kept.begin(), kept.end());
  return kept;
}

SagPool::Result SagPool::forward(tensor::Tape& tape, const GraphTensors& g,
                                 tensor::Var x) {
  check_rows(g, x.value().rows());
  // α = SCORE(X, A): one-channel GCN, no ReLU (gate activation is tanh).
  tensor::Var alpha = scorer_.forward(tape, g.adj, x, /*apply_relu=*/false);
  tensor::Var gate = tape.tanh_op(alpha);
  // Selection itself is non-differentiable; gradients flow through the
  // tanh gate.
  std::vector<std::size_t> kept = top_k(alpha.value());
  tensor::Var x_kept = tape.select_rows(x, kept);
  tensor::Var gate_kept = tape.select_rows(gate, kept);
  return {tape.scale_rows(x_kept, gate_kept), std::move(kept)};
}

tensor::Matrix SagPool::forward(const GraphTensors& g,
                                const tensor::Matrix& x) const {
  check_rows(g, x.rows());
  const tensor::Matrix alpha =
      scorer_.forward(*g.adj, x, /*apply_relu=*/false);
  const std::vector<std::size_t> kept = top_k(alpha);
  // Gathered and gated into their own matrix, one product per element,
  // as select_rows + scale_rows do.
  tensor::Matrix pooled(kept.size(), x.cols());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const float f = std::tanh(alpha.at(kept[i], 0));
    const auto src = x.row(kept[i]);
    auto dst = pooled.row(i);
    for (std::size_t c = 0; c < dst.size(); ++c) dst[c] = src[c] * f;
  }
  return pooled;
}

}  // namespace gnn4ip::gnn
