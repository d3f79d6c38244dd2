#include "gnn/hw2vec.h"

#include "util/contract.h"

namespace gnn4ip::gnn {
namespace {

std::vector<GcnLayer> build_convs(const Hw2VecConfig& config,
                                  util::Rng& rng) {
  GNN4IP_ENSURE(config.num_layers >= 1, "hw2vec needs at least one GCN layer");
  std::vector<GcnLayer> convs;
  convs.reserve(config.num_layers);
  std::size_t in_dim = config.input_dim;
  for (std::size_t l = 0; l < config.num_layers; ++l) {
    convs.emplace_back(in_dim, config.hidden_dim, rng);
    in_dim = config.hidden_dim;
  }
  return convs;
}

}  // namespace

Hw2Vec::Hw2Vec(const Hw2VecConfig& config)
    : config_(config),
      init_rng_(config.seed),
      convs_(build_convs(config_, init_rng_)),
      pool_(config_.hidden_dim, config_.pool_ratio, init_rng_) {}

void Hw2Vec::check_input(const GraphTensors& g) const {
  GNN4IP_ENSURE(g.x.cols() == config_.input_dim,
                "graph feature width does not match model input_dim");
}

tensor::Var Hw2Vec::embed(tensor::Tape& tape, const GraphTensors& g,
                          util::Rng& dropout_rng, bool training) {
  check_input(g);
  tensor::Var x = tape.constant(g.x);
  // Message-propagation phase (Eq. 5), dropout after every GCN layer.
  for (std::size_t l = 0; l < convs_.size(); ++l) {
    x = convs_[l].forward(tape, g.adj, x, relu_after(l));
    x = tape.dropout(x, config_.dropout, dropout_rng, training);
  }
  // Attention-based top-k pooling, then the read-out phase (Eq. 3).
  SagPool::Result pooled = pool_.forward(tape, g, x);
  return apply_readout(tape, pooled.x, config_.readout);
}

tensor::Matrix Hw2Vec::embed_inference(const GraphTensors& g) const {
  check_input(g);
  GNN4IP_ENSURE(g.adj != nullptr, "graph has no adjacency");
  // Dropout is the identity at inference, so it has no step here.
  tensor::Matrix x = convs_[0].forward(*g.adj, g.x, relu_after(0));
  for (std::size_t l = 1; l < convs_.size(); ++l) {
    x = convs_[l].forward(*g.adj, x, relu_after(l));
  }
  return apply_readout(pool_.forward(g, x), config_.readout);
}

std::vector<tensor::Parameter*> Hw2Vec::parameters() {
  std::vector<tensor::Parameter*> params;
  for (GcnLayer& conv : convs_) {
    params.push_back(&conv.weight());
    params.push_back(&conv.bias());
  }
  params.push_back(&pool_.scorer().weight());
  params.push_back(&pool_.scorer().bias());
  return params;
}

}  // namespace gnn4ip::gnn
