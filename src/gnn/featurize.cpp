#include "gnn/featurize.h"

#include <algorithm>
#include <cmath>

#include "dfg/node_kind.h"
#include "util/contract.h"

namespace gnn4ip::gnn {

GraphTensors featurize(const graph::Digraph& g,
                       const FeaturizeOptions& options) {
  GNN4IP_ENSURE(g.num_nodes() > 0, "featurize on empty graph");
  const std::size_t n = g.num_nodes();
  GraphTensors t;
  t.num_nodes = n;
  t.x = tensor::Matrix(n, dfg::kNodeKindCount);
  for (std::size_t v = 0; v < n; ++v) {
    const int kind = g.node(static_cast<graph::NodeId>(v)).kind;
    GNN4IP_ENSURE(kind >= 0 && kind < dfg::kNodeKindCount,
                  "node kind outside DFG vocabulary");
    t.x.at(v, static_cast<std::size_t>(kind)) = 1.0F;
  }

  // One pass over the rows builds both the edge list and the structure
  // of Â. Each row is sorted and deduplicated on its own, so the edges
  // come out in (src, dst) order and Â's columns ascend within a row:
  // the order a global sort would give, without one.
  t.edges.reserve(g.num_edges());
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<std::size_t> cols;
  cols.reserve(n + g.num_edges() * (options.symmetrize ? 2 : 1));
  for (std::size_t r = 0; r < n; ++r) {
    const auto id = static_cast<graph::NodeId>(r);
    const std::size_t first_edge = t.edges.size();
    for (const graph::NodeId d : g.out_neighbors(id)) {
      // Self-loops are re-added as Â's diagonal.
      const auto dst = static_cast<std::size_t>(d);
      if (dst != r) t.edges.emplace_back(r, dst);
    }
    const auto edge_row = t.edges.begin() + static_cast<long>(first_edge);
    std::sort(edge_row, t.edges.end());
    t.edges.erase(std::unique(edge_row, t.edges.end()), t.edges.end());

    const std::size_t first_col = cols.size();
    cols.push_back(r);
    for (auto e = t.edges.begin() + static_cast<long>(first_edge);
         e != t.edges.end(); ++e) {
      cols.push_back(e->second);
    }
    if (options.symmetrize) {
      for (const graph::NodeId s : g.in_neighbors(id)) {
        cols.push_back(static_cast<std::size_t>(s));
      }
    }
    const auto col_row = cols.begin() + static_cast<long>(first_col);
    std::sort(col_row, cols.end());
    cols.erase(std::unique(col_row, cols.end()), cols.end());
    offsets[r + 1] = cols.size();
  }

  // D̂^{-1/2} Â D̂^{-1/2}: a row's length is its degree in Â.
  std::vector<float> inv_sqrt(n);
  for (std::size_t v = 0; v < n; ++v) {
    inv_sqrt[v] =
        1.0F / std::sqrt(static_cast<float>(offsets[v + 1] - offsets[v]));
  }
  std::vector<float> values(cols.size());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
      values[k] = inv_sqrt[r] * inv_sqrt[cols[k]];
    }
  }
  t.adj = std::make_shared<tensor::Csr>(tensor::Csr::from_sorted(
      n, n, std::move(offsets), std::move(cols), std::move(values),
      /*symmetric=*/options.symmetrize));
  return t;
}

}  // namespace gnn4ip::gnn
