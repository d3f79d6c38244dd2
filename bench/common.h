// Shared utilities for the experiment harnesses.
//
// Every bench binary reproduces one table or figure from the paper and
// prints rows in the paper's format. Scale is controlled by the
// GNN4IP_BENCH_SCALE environment variable:
//   fast    — smoke-test sizes (seconds per bench)
//   default — reduced but representative corpus (default)
//   paper   — instance counts close to the publication (minutes)
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/gnn4ip.h"

namespace gnn4ip::bench {

struct Scale {
  const char* name;
  int rtl_instances_per_family;
  int netlist_instances_per_family;
  int epochs;
  int viz_instances_per_design;  // Fig. 4(b,c)
  int obfuscated_per_benchmark;  // Table III
  int table2_examples;           // per case
};

/// Resolve the scale from GNN4IP_BENCH_SCALE (fast|default|paper).
[[nodiscard]] const Scale& scale();

/// Print a boxed section header.
void print_header(const std::string& title);

/// Everything needed to query a trained hw2vec model.
struct TrainedModel {
  std::unique_ptr<gnn::Hw2Vec> model;
  std::unique_ptr<train::PairDataset> dataset;
  std::unique_ptr<train::Trainer> trainer;
  train::EvalResult eval;
  double train_seconds = 0.0;        // wall clock of the fit loop
  std::size_t train_pair_samples = 0;  // pair-loss evaluations during fit

  /// Embed by dataset graph index.
  [[nodiscard]] tensor::Matrix embed(std::size_t graph_index) const;
  /// Embed an out-of-corpus entry.
  [[nodiscard]] tensor::Matrix embed(const train::GraphEntry& entry) const;
};

/// Cosine similarity of two embedding rows.
[[nodiscard]] float cosine(const tensor::Matrix& a, const tensor::Matrix& b);

struct TrainSetup {
  int epochs = 120;
  std::size_t batch_graphs = 32;
  /// The paper trains batch gradient descent at 1e-3; with Adam on the
  /// smaller synthetic corpus 3e-3 reaches the paper's accuracy band
  /// (Table I in ROADMAP.md); the learning-rate sweep behind the value
  /// is not recorded.
  float learning_rate = 3e-3F;
  /// Negative:positive pair ratio, matching the paper's corpus
  /// construction (66631 different / 19094 similar ≈ 3.49).
  double negative_ratio = 3.49;
  std::uint64_t seed = 7;
  gnn::Hw2VecConfig model;      // paper §IV defaults

  TrainSetup() {
    // Weight-init seed chosen by a small stability scan, which is not
    // recorded; benches share it so results are reproducible.
    model.seed = 5;
  }
};

/// Build pair dataset from entries, train, evaluate on the held-out 20%.
[[nodiscard]] TrainedModel train_model(std::vector<train::GraphEntry> entries,
                                       const TrainSetup& setup);

/// Mean DFG node count over a set of entries (for Table I commentary).
[[nodiscard]] double mean_nodes(const std::vector<train::GraphEntry>& entries);

}  // namespace gnn4ip::bench
