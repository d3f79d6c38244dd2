#include "gnn/gcn_layer.h"

namespace gnn4ip::gnn {

GcnLayer::GcnLayer(std::size_t in_dim, std::size_t out_dim, util::Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(tensor::Matrix::glorot(in_dim, out_dim, rng)),
      bias_(tensor::Matrix::zeros(1, out_dim)) {}

tensor::Var GcnLayer::forward(tensor::Tape& tape,
                              std::shared_ptr<const tensor::Csr> adj,
                              tensor::Var x, bool apply_relu) {
  tensor::Var w = tape.parameter(weight_);
  tensor::Var b = tape.parameter(bias_);
  tensor::Var xw = tape.matmul(x, w);
  tensor::Var propagated = tape.spmm(std::move(adj), xw);
  tensor::Var with_bias = tape.add_row_broadcast(propagated, b);
  return apply_relu ? tape.relu(with_bias) : with_bias;
}

tensor::Matrix GcnLayer::forward(const tensor::Csr& adj,
                                const tensor::Matrix& x,
                                bool apply_relu) const {
  tensor::Matrix y = adj.multiply(tensor::matmul(x, weight_.value));
  const auto b = bias_.value.row(0);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    auto yr = y.row(r);
    for (std::size_t c = 0; c < y.cols(); ++c) yr[c] += b[c];
  }
  if (apply_relu) {
    for (float& v : y.data()) v = v > 0.0F ? v : 0.0F;
  }
  return y;
}

}  // namespace gnn4ip::gnn
