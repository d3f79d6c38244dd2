#include "gnn/readout.h"

#include <stdexcept>

#include "util/contract.h"

namespace gnn4ip::gnn {

const char* to_string(Readout r) {
  switch (r) {
    case Readout::kSum: return "sum";
    case Readout::kMean: return "mean";
    case Readout::kMax: return "max";
  }
  return "?";
}

Readout readout_from_string(const std::string& name) {
  if (name == "sum") return Readout::kSum;
  if (name == "mean") return Readout::kMean;
  if (name == "max") return Readout::kMax;
  throw std::invalid_argument("unknown readout '" + name +
                              "' (expected sum|mean|max)");
}

tensor::Var apply_readout(tensor::Tape& tape, tensor::Var x, Readout readout) {
  switch (readout) {
    case Readout::kSum: return tape.readout_sum(x);
    case Readout::kMean: return tape.readout_mean(x);
    case Readout::kMax: return tape.readout_max(x);
  }
  return tape.readout_max(x);
}

tensor::Matrix apply_readout(const tensor::Matrix& x, Readout readout) {
  GNN4IP_ENSURE(x.rows() > 0, "readout over empty matrix");
  switch (readout) {
    case Readout::kSum: return tensor::column_sums(x);
    case Readout::kMean: {
      tensor::Matrix y = tensor::column_sums(x);
      y.scale_in_place(1.0F / static_cast<float>(x.rows()));
      return y;
    }
    case Readout::kMax: return tensor::column_max(x);
  }
  return tensor::column_max(x);
}

}  // namespace gnn4ip::gnn
