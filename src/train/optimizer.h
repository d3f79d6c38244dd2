// First-order optimizers over tensor::Parameter collections.
//
// The paper trains with batch gradient descent at lr = 1e-3; plain SGD
// (optionally with momentum) reproduces that setting, and Adam is
// provided because cosine-embedding training converges substantially
// faster with it on small corpora. No SGD-vs-Adam comparison is
// recorded yet.
#pragma once

#include <memory>
#include <vector>

#include "tensor/tape.h"

namespace gnn4ip::train {

class Optimizer {
 public:
  explicit Optimizer(std::vector<tensor::Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Apply accumulated gradients, then clear them. Called on the
  /// coordinating thread only, after the trainer has folded all
  /// per-graph shadow gradients into Parameter::grad in fixed graph
  /// order — the optimizer itself never sees a partially-reduced or
  /// concurrently-mutated gradient.
  virtual void step() = 0;

  void zero_grad();

 protected:
  std::vector<tensor::Parameter*> params_;
};

class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<tensor::Parameter*> params, float lr,
      float momentum = 0.0F, float weight_decay = 0.0F);

  void step() override;

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::vector<tensor::Matrix> velocity_;
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<tensor::Parameter*> params, float lr,
       float beta1 = 0.9F, float beta2 = 0.999F, float eps = 1e-8F,
       float weight_decay = 0.0F);

  void step() override;

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  long step_count_ = 0;
  std::vector<tensor::Matrix> first_moment_;
  std::vector<tensor::Matrix> second_moment_;
};

enum class OptimizerKind { kSgd, kAdam };

[[nodiscard]] std::unique_ptr<Optimizer> make_optimizer(
    OptimizerKind kind, std::vector<tensor::Parameter*> params, float lr);

}  // namespace gnn4ip::train
