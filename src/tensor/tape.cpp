#include "tensor/tape.h"

#include <algorithm>
#include <cmath>

#include "util/contract.h"

namespace gnn4ip::tensor {

namespace {
constexpr float kCosineEps = 1e-8F;
}  // namespace

Matrix& GradSink::shadow(Parameter& p) {
  for (auto& [param, buf] : shadows_) {
    if (param == &p) return buf;
  }
  shadows_.emplace_back(&p,
                        Matrix(p.value.rows(), p.value.cols(), 0.0F));
  return shadows_.back().second;
}

void GradSink::add_into_params() {
  for (auto& [param, buf] : shadows_) param->grad.add_in_place(buf);
}

void GradSink::clear() {
  for (auto& [param, buf] : shadows_) buf.fill(0.0F);
}

const Matrix& Var::value() const {
  GNN4IP_ENSURE(tape_ != nullptr, "Var::value on invalid handle");
  return tape_->cnode(index_).value;
}

const Matrix& Var::grad() const {
  GNN4IP_ENSURE(tape_ != nullptr, "Var::grad on invalid handle");
  const auto& n = tape_->cnode(index_);
  if (n.grad_allocated) return n.grad;
  return tape_->empty_grad_;
}

Var Tape::make_node(Matrix value, bool needs_grad) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = needs_grad;
  nodes_.push_back(std::move(n));
  return Var(this, nodes_.size() - 1);
}

Tape::Node& Tape::node(std::size_t index) {
  GNN4IP_ENSURE(index < nodes_.size(), "tape node index out of range");
  return nodes_[index];
}

const Tape::Node& Tape::cnode(std::size_t index) const {
  GNN4IP_ENSURE(index < nodes_.size(), "tape node index out of range");
  return nodes_[index];
}

Matrix& Tape::grad_of(std::size_t index) {
  Node& n = node(index);
  if (!n.grad_allocated) {
    n.grad = Matrix(n.value.rows(), n.value.cols(), 0.0F);
    n.grad_allocated = true;
  }
  return n.grad;
}

void Tape::check_owned(Var v) const {
  GNN4IP_ENSURE(v.tape_ == this, "Var belongs to a different tape");
  GNN4IP_ENSURE(v.index_ < nodes_.size(), "Var index out of range");
}

Var Tape::constant(Matrix value) { return make_node(std::move(value), false); }

Var Tape::parameter(Parameter& p) {
  Var v = make_node(p.value, true);
  Node& n = node(v.index_);
  n.param = &p;
  const std::size_t self = v.index_;
  n.backward_fn = [self](Tape& t) {
    Node& leaf = t.node(self);
    if (leaf.grad_allocated) {
      Matrix& target =
          t.sink_ != nullptr ? t.sink_->shadow(*leaf.param) : leaf.param->grad;
      target.add_in_place(leaf.grad);
    }
  };
  return v;
}

Var Tape::matmul(Var a, Var b) {
  check_owned(a);
  check_owned(b);
  const bool needs = cnode(a.index_).needs_grad || cnode(b.index_).needs_grad;
  Var out = make_node(tensor::matmul(cnode(a.index_).value,
                                     cnode(b.index_).value),
                      needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t bi = b.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, bi, oi](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      if (t.node(ai).needs_grad) {
        // dA = dY · Bᵀ
        t.grad_of(ai).add_in_place(
            tensor::matmul_a_bt(dy, t.node(bi).value));
      }
      if (t.node(bi).needs_grad) {
        // dB = Aᵀ · dY
        t.grad_of(bi).add_in_place(
            tensor::matmul_at_b(t.node(ai).value, dy));
      }
    };
  }
  return out;
}

Var Tape::spmm(std::shared_ptr<const Csr> s, Var x) {
  check_owned(x);
  GNN4IP_ENSURE(s != nullptr, "spmm requires a sparse matrix");
  const bool needs = cnode(x.index_).needs_grad;
  Var out = make_node(s->multiply(cnode(x.index_).value), needs);
  if (needs) {
    const std::size_t xi = x.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [xi, oi, s = std::move(s)](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      t.grad_of(xi).add_in_place(s->multiply_transposed(t.node(oi).grad));
    };
  }
  return out;
}

Var Tape::add(Var a, Var b) {
  check_owned(a);
  check_owned(b);
  const bool needs = cnode(a.index_).needs_grad || cnode(b.index_).needs_grad;
  Var out = make_node(
      tensor::add(cnode(a.index_).value, cnode(b.index_).value), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t bi = b.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, bi, oi](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      if (t.node(ai).needs_grad) t.grad_of(ai).add_in_place(dy);
      if (t.node(bi).needs_grad) t.grad_of(bi).add_in_place(dy);
    };
  }
  return out;
}

Var Tape::add_row_broadcast(Var a, Var bias) {
  check_owned(a);
  check_owned(bias);
  const Matrix& av = cnode(a.index_).value;
  const Matrix& bv = cnode(bias.index_).value;
  GNN4IP_ENSURE(bv.rows() == 1 && bv.cols() == av.cols(),
                "bias must be 1×C matching a's columns");
  Matrix y = av;
  for (std::size_t r = 0; r < y.rows(); ++r) {
    auto yr = y.row(r);
    const auto br = bv.row(0);
    for (std::size_t c = 0; c < y.cols(); ++c) yr[c] += br[c];
  }
  const bool needs =
      cnode(a.index_).needs_grad || cnode(bias.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t bi = bias.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, bi, oi](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      if (t.node(ai).needs_grad) t.grad_of(ai).add_in_place(dy);
      if (t.node(bi).needs_grad) {
        Matrix& db = t.grad_of(bi);
        auto db_row = db.row(0);
        for (std::size_t r = 0; r < dy.rows(); ++r) {
          const auto dyr = dy.row(r);
          for (std::size_t c = 0; c < dy.cols(); ++c) db_row[c] += dyr[c];
        }
      }
    };
  }
  return out;
}

Var Tape::scale(Var a, float factor) {
  check_owned(a);
  Matrix y = cnode(a.index_).value;
  y.scale_in_place(factor);
  const bool needs = cnode(a.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, oi, factor](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      t.grad_of(ai).axpy_in_place(factor, t.node(oi).grad);
    };
  }
  return out;
}

namespace {

template <typename Fwd>
Matrix map_matrix(const Matrix& a, Fwd&& f) {
  Matrix y = a;
  for (float& x : y.data()) x = f(x);
  return y;
}

}  // namespace

Var Tape::relu(Var a) {
  check_owned(a);
  Matrix y = map_matrix(cnode(a.index_).value,
                        [](float x) { return x > 0.0F ? x : 0.0F; });
  const bool needs = cnode(a.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, oi](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      const Matrix& x = t.node(ai).value;
      Matrix& dx = t.grad_of(ai);
      auto dxd = dx.data();
      const auto dyd = dy.data();
      const auto xd = x.data();
      for (std::size_t i = 0; i < dxd.size(); ++i) {
        if (xd[i] > 0.0F) dxd[i] += dyd[i];
      }
    };
  }
  return out;
}

Var Tape::tanh_op(Var a) {
  check_owned(a);
  Matrix y = map_matrix(cnode(a.index_).value,
                        [](float x) { return std::tanh(x); });
  const bool needs = cnode(a.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, oi](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      const Matrix& y_val = t.node(oi).value;
      Matrix& dx = t.grad_of(ai);
      auto dxd = dx.data();
      const auto dyd = dy.data();
      const auto yd = y_val.data();
      for (std::size_t i = 0; i < dxd.size(); ++i) {
        dxd[i] += dyd[i] * (1.0F - yd[i] * yd[i]);
      }
    };
  }
  return out;
}

Var Tape::sigmoid(Var a) {
  check_owned(a);
  Matrix y = map_matrix(cnode(a.index_).value, [](float x) {
    return 1.0F / (1.0F + std::exp(-x));
  });
  const bool needs = cnode(a.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, oi](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      const Matrix& y_val = t.node(oi).value;
      Matrix& dx = t.grad_of(ai);
      auto dxd = dx.data();
      const auto dyd = dy.data();
      const auto yd = y_val.data();
      for (std::size_t i = 0; i < dxd.size(); ++i) {
        dxd[i] += dyd[i] * yd[i] * (1.0F - yd[i]);
      }
    };
  }
  return out;
}

Var Tape::dropout(Var a, float rate, util::Rng& rng, bool training) {
  check_owned(a);
  GNN4IP_ENSURE(rate >= 0.0F && rate < 1.0F, "dropout rate must be in [0,1)");
  if (!training || rate == 0.0F) return a;
  const Matrix& x = cnode(a.index_).value;
  const float keep = 1.0F - rate;
  const float inv_keep = 1.0F / keep;
  // Mask holds 0 or 1/keep so forward and backward share one multiply.
  Matrix mask(x.rows(), x.cols());
  for (float& m : mask.data()) {
    m = rng.flip(keep) ? inv_keep : 0.0F;
  }
  Matrix y = hadamard(x, mask);
  const bool needs = cnode(a.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, oi, mask = std::move(mask)](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      t.grad_of(ai).add_in_place(hadamard(t.node(oi).grad, mask));
    };
  }
  return out;
}

Var Tape::select_rows(Var a, std::vector<std::size_t> rows) {
  check_owned(a);
  const Matrix& x = cnode(a.index_).value;
  Matrix y(rows.size(), x.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    GNN4IP_ENSURE(rows[i] < x.rows(), "select_rows index out of range");
    const auto src = x.row(rows[i]);
    std::copy(src.begin(), src.end(), y.row(i).begin());
  }
  const bool needs = cnode(a.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, oi, rows = std::move(rows)](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      Matrix& dx = t.grad_of(ai);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto dyr = dy.row(i);
        auto dxr = dx.row(rows[i]);
        for (std::size_t c = 0; c < dy.cols(); ++c) dxr[c] += dyr[c];
      }
    };
  }
  return out;
}

Var Tape::scale_rows(Var a, Var s) {
  check_owned(a);
  check_owned(s);
  const Matrix& x = cnode(a.index_).value;
  const Matrix& sv = cnode(s.index_).value;
  GNN4IP_ENSURE(sv.rows() == x.rows() && sv.cols() == 1,
                "scale_rows: scores must be N×1");
  Matrix y = x;
  for (std::size_t r = 0; r < y.rows(); ++r) {
    const float f = sv.at(r, 0);
    for (float& v : y.row(r)) v *= f;
  }
  const bool needs =
      cnode(a.index_).needs_grad || cnode(s.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t si = s.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, si, oi](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      const Matrix& x_val = t.node(ai).value;
      const Matrix& s_val = t.node(si).value;
      if (t.node(ai).needs_grad) {
        Matrix& dx = t.grad_of(ai);
        for (std::size_t r = 0; r < dy.rows(); ++r) {
          const float f = s_val.at(r, 0);
          const auto dyr = dy.row(r);
          auto dxr = dx.row(r);
          for (std::size_t c = 0; c < dy.cols(); ++c) dxr[c] += f * dyr[c];
        }
      }
      if (t.node(si).needs_grad) {
        Matrix& ds = t.grad_of(si);
        for (std::size_t r = 0; r < dy.rows(); ++r) {
          const auto dyr = dy.row(r);
          const auto xr = x_val.row(r);
          double acc = 0.0;
          for (std::size_t c = 0; c < dy.cols(); ++c) {
            acc += static_cast<double>(dyr[c]) * xr[c];
          }
          ds.at(r, 0) += static_cast<float>(acc);
        }
      }
    };
  }
  return out;
}

Var Tape::readout_max(Var a) {
  check_owned(a);
  const Matrix& x = cnode(a.index_).value;
  GNN4IP_ENSURE(x.rows() > 0, "readout over empty matrix");
  std::vector<std::size_t> argmax;
  Matrix y = column_max(x, &argmax);
  const bool needs = cnode(a.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, oi, argmax = std::move(argmax)](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      Matrix& dx = t.grad_of(ai);
      for (std::size_t c = 0; c < dy.cols(); ++c) {
        dx.at(argmax[c], c) += dy.at(0, c);
      }
    };
  }
  return out;
}

Var Tape::readout_mean(Var a) {
  check_owned(a);
  const Matrix& x = cnode(a.index_).value;
  GNN4IP_ENSURE(x.rows() > 0, "readout over empty matrix");
  Matrix y = column_sums(x);
  const float inv_n = 1.0F / static_cast<float>(x.rows());
  y.scale_in_place(inv_n);
  const bool needs = cnode(a.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, oi, inv_n](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      Matrix& dx = t.grad_of(ai);
      for (std::size_t r = 0; r < dx.rows(); ++r) {
        auto dxr = dx.row(r);
        for (std::size_t c = 0; c < dx.cols(); ++c) {
          dxr[c] += inv_n * dy.at(0, c);
        }
      }
    };
  }
  return out;
}

Var Tape::readout_sum(Var a) {
  check_owned(a);
  const Matrix& x = cnode(a.index_).value;
  GNN4IP_ENSURE(x.rows() > 0, "readout over empty matrix");
  Matrix y = column_sums(x);
  const bool needs = cnode(a.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, oi](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const Matrix& dy = t.node(oi).grad;
      Matrix& dx = t.grad_of(ai);
      for (std::size_t r = 0; r < dx.rows(); ++r) {
        auto dxr = dx.row(r);
        for (std::size_t c = 0; c < dx.cols(); ++c) dxr[c] += dy.at(0, c);
      }
    };
  }
  return out;
}

Var Tape::cosine_similarity(Var a, Var b) {
  check_owned(a);
  check_owned(b);
  const Matrix& av = cnode(a.index_).value;
  const Matrix& bv = cnode(b.index_).value;
  GNN4IP_ENSURE(av.same_shape(bv), "cosine_similarity shape mismatch");
  const float ab = dot(av, bv);
  const float na = av.frobenius_norm();
  const float nb = bv.frobenius_norm();
  const float denom = std::max(na * nb, kCosineEps);
  const float sim = ab / denom;
  Matrix y(1, 1);
  y.at(0, 0) = sim;
  const bool needs = cnode(a.index_).needs_grad || cnode(b.index_).needs_grad;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    const std::size_t ai = a.index_;
    const std::size_t bi = b.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [ai, bi, oi, na, nb, sim, denom](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const float ds = t.node(oi).grad.at(0, 0);
      const Matrix& av2 = t.node(ai).value;
      const Matrix& bv2 = t.node(bi).value;
      // d sim / d a = b/denom − sim · a/na², and symmetrically for b.
      const float na2 = std::max(na * na, kCosineEps);
      const float nb2 = std::max(nb * nb, kCosineEps);
      if (t.node(ai).needs_grad) {
        Matrix& da = t.grad_of(ai);
        const auto ad = av2.data();
        const auto bd = bv2.data();
        auto dd = da.data();
        for (std::size_t i = 0; i < dd.size(); ++i) {
          dd[i] += ds * (bd[i] / denom - sim * ad[i] / na2);
        }
      }
      if (t.node(bi).needs_grad) {
        Matrix& db = t.grad_of(bi);
        const auto ad = av2.data();
        const auto bd = bv2.data();
        auto dd = db.data();
        for (std::size_t i = 0; i < dd.size(); ++i) {
          dd[i] += ds * (ad[i] / denom - sim * bd[i] / nb2);
        }
      }
    };
  }
  return out;
}

Var Tape::cosine_embedding_loss(Var sim, int label, float margin) {
  check_owned(sim);
  const Matrix& sv = cnode(sim.index_).value;
  GNN4IP_ENSURE(sv.rows() == 1 && sv.cols() == 1,
                "cosine_embedding_loss expects a scalar similarity");
  GNN4IP_ENSURE(label == 1 || label == -1, "label must be ±1");
  const float y_hat = sv.at(0, 0);
  Matrix loss(1, 1);
  float d_loss_d_sim = 0.0F;
  if (label == 1) {
    loss.at(0, 0) = 1.0F - y_hat;
    d_loss_d_sim = -1.0F;
  } else {
    const float hinge = y_hat - margin;
    loss.at(0, 0) = hinge > 0.0F ? hinge : 0.0F;
    d_loss_d_sim = hinge > 0.0F ? 1.0F : 0.0F;
  }
  const bool needs = cnode(sim.index_).needs_grad;
  Var out = make_node(std::move(loss), needs);
  if (needs) {
    const std::size_t si = sim.index_;
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [si, oi, d_loss_d_sim](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      t.grad_of(si).at(0, 0) += d_loss_d_sim * t.node(oi).grad.at(0, 0);
    };
  }
  return out;
}

Var Tape::sum_scalars(const std::vector<Var>& scalars) {
  GNN4IP_ENSURE(!scalars.empty(), "sum_scalars over empty set");
  bool needs = false;
  float total = 0.0F;
  for (Var v : scalars) {
    check_owned(v);
    const Matrix& m = cnode(v.index_).value;
    GNN4IP_ENSURE(m.rows() == 1 && m.cols() == 1,
                  "sum_scalars expects 1×1 values");
    total += m.at(0, 0);
    needs = needs || cnode(v.index_).needs_grad;
  }
  Matrix y(1, 1);
  y.at(0, 0) = total;
  Var out = make_node(std::move(y), needs);
  if (needs) {
    std::vector<std::size_t> indices;
    indices.reserve(scalars.size());
    for (Var v : scalars) indices.push_back(v.index_);
    const std::size_t oi = out.index_;
    node(oi).backward_fn = [indices = std::move(indices), oi](Tape& t) {
      if (!t.node(oi).grad_allocated) return;
      const float dy = t.node(oi).grad.at(0, 0);
      for (std::size_t i : indices) {
        if (t.node(i).needs_grad) t.grad_of(i).at(0, 0) += dy;
      }
    };
  }
  return out;
}

void Tape::backward(Var loss) {
  check_owned(loss);
  const Matrix& lv = cnode(loss.index_).value;
  GNN4IP_ENSURE(lv.rows() == 1 && lv.cols() == 1,
                "backward expects a scalar loss");
  grad_of(loss.index_).at(0, 0) = 1.0F;
  run_backward();
}

void Tape::backward(Var output, const Matrix& seed) {
  check_owned(output);
  GNN4IP_ENSURE(cnode(output.index_).value.same_shape(seed),
                "backward seed shape must match the output");
  grad_of(output.index_).add_in_place(seed);
  run_backward();
}

void Tape::run_backward() {
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    if (nodes_[i].backward_fn && nodes_[i].needs_grad) {
      nodes_[i].backward_fn(*this);
    }
  }
}

}  // namespace gnn4ip::tensor
