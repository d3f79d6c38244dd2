// Conversion of a DFG into GNN tensors: one-hot node features X⁽⁰⁾
// (node kind vocabulary, paper §III-C "directly converting the node's
// name to its corresponding one-hot vector") and the symmetric-normalized
// adjacency D̂^{-1/2} Â D̂^{-1/2} with Â = A + I of Eq. 5.
//
// Featurize builds the one operator a forward pass multiplies by, the
// full-graph normalized adjacency, once per graph. Nothing after the
// SAGPool layer propagates, so the pooled subgraph's adjacency is never
// built. With `symmetrize` on, Â is symmetric bit for bit
// (inv_sqrt[r]·inv_sqrt[c] commutes), so the CSR stores no transpose.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"

namespace gnn4ip::gnn {

struct FeaturizeOptions {
  /// Treat edges as undirected for message propagation (Â gains both
  /// directions). GCN's spectral derivation assumes symmetric adjacency;
  /// disabling restricts propagation to consumer→producer direction.
  bool symmetrize = true;
};

/// Holds nothing and nothing reads it; it is kept only because the
/// perfbench harness still constructs one for every design it screens.
struct PooledAdjCache {};

/// Tensors for one graph. `edges` is the deduplicated, self-loop-free
/// directed edge list, sorted by (src, dst); `adj` is built from it.
struct GraphTensors {
  tensor::Matrix x;  // N × kNodeKindCount
  std::shared_ptr<const tensor::Csr> adj;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::size_t num_nodes = 0;
  /// Read by nothing; only the perfbench harness still sets it.
  std::shared_ptr<PooledAdjCache> pooled_cache;
};

/// Build tensors from a DFG whose node kinds are dfg::NodeKind values.
/// Â = A (+ Aᵀ if symmetrize) + I, normalized D̂^{-1/2} Â D̂^{-1/2}.
[[nodiscard]] GraphTensors featurize(const graph::Digraph& g,
                                     const FeaturizeOptions& options = {});

}  // namespace gnn4ip::gnn
