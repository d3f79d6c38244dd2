// Single-shard pairwise similarity view — one EmbeddingStore plus the
// cosine kernels, batched.
//
// GNN4IP's pair check (Alg. 1) is cosine(h_A, h_B); auditing a corpus of
// N designs needs all N·(N−1)/2 pairs. The naive pattern re-runs the
// whole embedding pipeline for both members of every pair, i.e. N−1
// embeddings per design. PairwiseScorer instead embeds each design
// exactly once into a cached N×D row store (core::EmbeddingStore) and
// scores every pair from that cache with the blocked, multi-threaded
// cosine kernels of core/cosine_kernels.h — turning an O(N²·embed)
// workload into O(N·embed + N²·D).
//
// Scores are bit-identical for any thread count: each output cell is
// computed independently from the same cached rows, so the arithmetic
// order inside a cell never depends on the schedule.
//
// This is the single-shard reference path, kept for tests, benches, and
// small hand-wired flows. Production screening layers a
// core::ShardedCorpus (K stores, same kernels, same bits) under
// audit::AuditService; this class must stay bit-identical to it for
// num_shards == anything, which the sharding tests assert.
//
// Typical use:
//   core::PairwiseScorer scorer;
//   for (const auto& e : entries) scorer.add(e.name, model.embed_inference(e.tensors));
//   auto flagged = scorer.flag();
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/cosine_kernels.h"
#include "core/embedding_store.h"
#include "gnn/hw2vec.h"
#include "tensor/matrix.h"
#include "train/dataset.h"

namespace gnn4ip::core {

class PairwiseScorer {
 public:
  /// "No such row": returned by compact() for removed rows.
  static constexpr std::size_t kNoIndex = EmbeddingStore::kNoIndex;

  explicit PairwiseScorer(const ScorerOptions& options = {});

  /// Embed every entry once through `model` (fanned out over the worker
  /// pool; graphs are independent) and cache the rows in corpus order.
  [[nodiscard]] static PairwiseScorer from_entries(
      const gnn::Hw2Vec& model, std::span<const train::GraphEntry> entries,
      const ScorerOptions& options = {});

  /// Append one design's embedding (a 1×D matrix, or any shape viewed as
  /// a flat D-vector; D is fixed by the first add). Returns its index.
  std::size_t add(std::string name, const tensor::Matrix& embedding);

  [[nodiscard]] std::size_t size() const { return store_.size(); }
  [[nodiscard]] bool empty() const { return store_.empty(); }
  [[nodiscard]] std::size_t dim() const { return store_.dim(); }
  [[nodiscard]] const std::string& name(std::size_t i) const {
    return store_.name(i);
  }
  [[nodiscard]] const ScorerOptions& options() const { return options_; }

  /// The resident row storage itself (shard-unit introspection).
  [[nodiscard]] const EmbeddingStore& store() const { return store_; }

  /// Zero-copy view of row `i` of the resident cache (length dim()).
  /// Invalidated by add/compact, like a vector iterator.
  [[nodiscard]] std::span<const float> row(std::size_t i) const {
    return store_.row(i);
  }

  /// Zero-copy view of the whole resident cache as a flat row-major
  /// size()×dim() buffer. Same invalidation rules as row().
  [[nodiscard]] std::span<const float> rows() const { return store_.rows(); }

  /// Tombstone row `i`: it keeps its index (and name(i)) but is skipped
  /// by top_k / score_all_pairs / flag, and erased by the next compact().
  /// The positional kernels (score_matrix, score_new_rows, score,
  /// score_against) still include tombstoned rows — compact() first when
  /// exact shapes matter.
  void remove(std::size_t i) { store_.remove(i); }

  /// True while row `i` has not been removed.
  [[nodiscard]] bool live(std::size_t i) const { return store_.live(i); }

  /// Rows not yet removed.
  [[nodiscard]] std::size_t live_count() const { return store_.live_count(); }

  /// Erase every removed row in one pass. Returns the index remapping:
  /// result[old_index] is the row's new index, or kNoIndex if it was
  /// removed. No-op (identity mapping) when nothing is removed.
  std::vector<std::size_t> compact() { return store_.compact(); }

  /// The cached embeddings as an N×D row matrix (copy; prefer rows()/
  /// row() when a view suffices).
  [[nodiscard]] tensor::Matrix embedding_matrix() const {
    return store_.embedding_matrix();
  }

  /// Full N×N symmetric cosine matrix.
  [[nodiscard]] tensor::Matrix score_matrix() const;

  /// Incremental-audit scoring: cosine of every row appended at or after
  /// index `first_new` against the whole resident corpus, as an
  /// (N − first_new) × N matrix (row r is corpus row first_new + r).
  /// Screening a stream of incoming designs therefore costs O(ΔN·N·D)
  /// per batch instead of recomputing the N×N matrix; the rows are
  /// bit-identical to the corresponding rows of score_matrix().
  [[nodiscard]] tensor::Matrix score_new_rows(std::size_t first_new) const;

  /// The k live corpus entries most similar to row `i` (i itself and
  /// removed rows excluded), sorted by descending similarity with
  /// ascending-index tie-break; fewer than k results when the corpus is
  /// small. Each result has a == i and b == the neighbour.
  [[nodiscard]] std::vector<PairScore> top_k(std::size_t i,
                                             std::size_t k) const;

  /// Rectangular cross-corpus scores: result(i, j) = cosine of this
  /// corpus's row i against `other`'s row j. Dims must match.
  [[nodiscard]] tensor::Matrix score_against(const PairwiseScorer& other) const;

  /// All unordered pairs of live rows, scored from the cache.
  [[nodiscard]] std::vector<PairScore> score_all_pairs() const;

  /// Live pairs with similarity > delta (Alg. 1's decision boundary),
  /// sorted by descending similarity with ascending (a, b) tie-break —
  /// the fixed order every sharded path reproduces. The overload without
  /// an argument uses options().delta.
  [[nodiscard]] std::vector<PairScore> flag(float delta) const;
  [[nodiscard]] std::vector<PairScore> flag() const {
    return flag(options_.delta);
  }

  /// Single cached pair, for spot checks against the per-pair path.
  [[nodiscard]] float score(std::size_t i, std::size_t j) const;

 private:
  ScorerOptions options_;
  EmbeddingStore store_;
};

}  // namespace gnn4ip::core
