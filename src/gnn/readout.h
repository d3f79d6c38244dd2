// Graph readout (Eq. 3): aggregate pooled node embeddings into the
// graph-level embedding h_G by sum-, mean-, or max-pooling.
#pragma once

#include <string>

#include "tensor/tape.h"

namespace gnn4ip::gnn {

enum class Readout { kSum, kMean, kMax };

[[nodiscard]] const char* to_string(Readout r);
/// Parse "sum" / "mean" / "max"; throws std::invalid_argument otherwise.
[[nodiscard]] Readout readout_from_string(const std::string& name);

/// Apply the readout over node rows -> 1×C graph embedding.
[[nodiscard]] tensor::Var apply_readout(tensor::Tape& tape, tensor::Var x,
                                        Readout readout);

/// Inference: the same column reductions as the tape readouts, no tape.
[[nodiscard]] tensor::Matrix apply_readout(const tensor::Matrix& x,
                                           Readout readout);

}  // namespace gnn4ip::gnn
