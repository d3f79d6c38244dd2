// hw2vec: the graph-embedding network of GNN4IP (paper Fig. 3, Alg. 1
// lines 3–8): stacked GCN layers → self-attention top-k pooling → readout.
//
// The same weights embed both members of a circuit pair; similarity is
// the cosine of the two embeddings (Eq. 6).
//
// Two forward paths share the layers' kernels: embed() records an
// autograd tape for training, and embed_inference() runs the same
// arithmetic in the same order with no tape, so its embeddings are
// bit-identical to the tape's (gnn_test and train_test compare them).
#pragma once

#include <memory>
#include <vector>

#include "dfg/node_kind.h"
#include "gnn/featurize.h"
#include "gnn/gcn_layer.h"
#include "gnn/readout.h"
#include "gnn/sag_pool.h"
#include "tensor/tape.h"
#include "util/rng.h"

namespace gnn4ip::gnn {

struct Hw2VecConfig {
  std::size_t input_dim = static_cast<std::size_t>(dfg::kNodeKindCount);
  std::size_t hidden_dim = 16;   // paper §IV: 16 hidden units
  std::size_t num_layers = 2;    // paper §IV: 2 GCN layers
  float pool_ratio = 0.5F;       // paper §IV: top-k ratio 0.5
  Readout readout = Readout::kMax;  // paper §IV: max-pooling readout
  float dropout = 0.1F;          // paper §IV: dropout 0.1 after each GCN
  bool symmetrize_adjacency = true;
  /// Apply ReLU after the final GCN layer. Off by default: with ReLU the
  /// graph embedding is confined to the positive orthant, where cosine
  /// similarity saturates near +1 and same/different pairs cannot
  /// separate (embedding collapse). Eq. 5's σ is kept on all hidden
  /// layers. No ablation of this choice is recorded yet.
  bool relu_last_layer = false;
  std::uint64_t seed = 1;        // weight-init seed
};

class Hw2Vec {
 public:
  explicit Hw2Vec(const Hw2VecConfig& config = {});

  /// Embed a featurized graph on a caller-provided tape (training path:
  /// gradients flow into the model parameters).
  [[nodiscard]] tensor::Var embed(tensor::Tape& tape, const GraphTensors& g,
                                  util::Rng& dropout_rng, bool training);

  /// Inference: h_G with no tape and no dropout. Reads the weights in
  /// place and writes nothing, so any number of threads may share one
  /// model.
  [[nodiscard]] tensor::Matrix embed_inference(const GraphTensors& g) const;

  /// All trainable parameters (for the optimizer / serialization).
  [[nodiscard]] std::vector<tensor::Parameter*> parameters();

  [[nodiscard]] const Hw2VecConfig& config() const { return config_; }
  /// Width D of the graph embedding h_G (the readout output).
  [[nodiscard]] std::size_t embedding_dim() const {
    return config_.hidden_dim;
  }
  [[nodiscard]] std::vector<GcnLayer>& conv_layers() { return convs_; }
  [[nodiscard]] SagPool& pool() { return pool_; }

 private:
  void check_input(const GraphTensors& g) const;
  /// ReLU after conv layer `l`: every hidden layer, and the last one
  /// only when relu_last_layer is set.
  [[nodiscard]] bool relu_after(std::size_t l) const {
    return l + 1 < convs_.size() || config_.relu_last_layer;
  }

  Hw2VecConfig config_;
  util::Rng init_rng_;  // declared before the layers that consume it
  std::vector<GcnLayer> convs_;
  SagPool pool_;
};

}  // namespace gnn4ip::gnn
