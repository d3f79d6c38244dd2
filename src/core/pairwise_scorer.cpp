#include "core/pairwise_scorer.h"

#include <algorithm>

#include "util/contract.h"
#include "util/thread_pool.h"

namespace gnn4ip::core {

PairwiseScorer::PairwiseScorer(const ScorerOptions& options)
    : options_(options) {}

PairwiseScorer PairwiseScorer::from_entries(
    const gnn::Hw2Vec& model, std::span<const train::GraphEntry> entries,
    const ScorerOptions& options) {
  PairwiseScorer scorer(options);
  // Graphs are independent, so the embedding phase fans out over the
  // worker pool; each worker fills only its own slot and the rows are
  // appended in corpus order afterwards, so the cache is bit-identical
  // for any worker count. Inference only reads the model weights, which
  // makes the shared `model` safe to use concurrently.
  std::vector<tensor::Matrix> embeddings(entries.size());
  const auto embed_one = [&](std::size_t i) {
    embeddings[i] = model.embed_inference(entries[i].tensors);
  };
  util::parallel_for(entries.size(), options.num_threads, embed_one);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    scorer.add(entries[i].name, embeddings[i]);
  }
  return scorer;
}

std::size_t PairwiseScorer::add(std::string name,
                                const tensor::Matrix& embedding) {
  return store_.add(std::move(name), embedding);
}

tensor::Matrix PairwiseScorer::score_matrix() const {
  return cosine_rows(rows(), size(), rows(), size(), dim(), options_);
}

tensor::Matrix PairwiseScorer::score_against(
    const PairwiseScorer& other) const {
  // Either side empty: a correctly shaped all-zero result, regardless of
  // which side has not fixed its dim yet.
  if (empty() || other.empty()) return tensor::Matrix(size(), other.size());
  GNN4IP_ENSURE(dim() == other.dim(), "score_against: corpus dims differ");
  return cosine_rows(rows(), size(), other.rows(), other.size(), dim(),
                     options_);
}

tensor::Matrix PairwiseScorer::score_new_rows(std::size_t first_new) const {
  GNN4IP_ENSURE(first_new <= size(),
                "score_new_rows: first_new past the corpus end");
  const std::size_t n = size();
  const std::size_t d = dim();
  const std::size_t new_rows = n - first_new;
  tensor::Matrix result(new_rows, n);
  if (new_rows == 0) return result;
  // Rows are read straight out of the resident cache — no N×D copy — so
  // screening ΔN incoming designs really is O(ΔN·N·D). The store's
  // cached norms carry the same ascending-k row_norm bits the old
  // per-call recomputation produced, and every cell is cosine_cell,
  // keeping the rows bit-identical to the matching score_matrix() rows.
  const std::span<const float> norms = store_.norms();
  const float* data = rows().data();
  for (std::size_t r = 0; r < new_rows; ++r) {
    const float* q = data + (first_new + r) * d;
    const float q_norm = norms[first_new + r];
    const std::span<float> out = result.row(r);
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = cosine_cell(q, data + j * d, d, q_norm * norms[j]);
    }
  }
  return result;
}

std::vector<PairScore> PairwiseScorer::top_k(std::size_t i,
                                             std::size_t k) const {
  GNN4IP_ENSURE(i < size(), "top_k: row index out of range");
  GNN4IP_ENSURE(live(i), "top_k: row has been removed");
  // One row against the cache via the same per-cell arithmetic as
  // score() / cosine_rows, so retrieval agrees bit-for-bit with the
  // batch paths. Removed rows are not valid neighbours.
  std::vector<PairScore> neighbours;
  neighbours.reserve(live_count() > 0 ? live_count() - 1 : 0);
  for (std::size_t j = 0; j < size(); ++j) {
    if (j == i || !live(j)) continue;
    neighbours.push_back({i, j, score(i, j)});
  }
  const std::size_t keep = std::min(k, neighbours.size());
  const auto closer = [](const PairScore& x, const PairScore& y) {
    if (x.similarity != y.similarity) return x.similarity > y.similarity;
    return x.b < y.b;
  };
  std::partial_sort(neighbours.begin(),
                    neighbours.begin() + static_cast<std::ptrdiff_t>(keep),
                    neighbours.end(), closer);
  neighbours.resize(keep);
  return neighbours;
}

std::vector<PairScore> PairwiseScorer::score_all_pairs() const {
  // The symmetric matrix computes both triangles; at D = 16 the kernel is
  // cheap enough that halving it is not worth a second code path.
  const tensor::Matrix scores = score_matrix();
  std::vector<PairScore> pairs;
  pairs.reserve(live_count() * (live_count() > 0 ? live_count() - 1 : 0) / 2);
  for (std::size_t i = 0; i < size(); ++i) {
    if (!live(i)) continue;
    const std::span<const float> row = scores.row(i);
    for (std::size_t j = i + 1; j < size(); ++j) {
      if (!live(j)) continue;
      pairs.push_back({i, j, row[j]});
    }
  }
  return pairs;
}

std::vector<PairScore> PairwiseScorer::flag(float delta) const {
  std::vector<PairScore> pairs = score_all_pairs();
  std::erase_if(pairs,
                [delta](const PairScore& p) { return p.similarity <= delta; });
  std::sort(pairs.begin(), pairs.end(), flag_order);
  return pairs;
}

float PairwiseScorer::score(std::size_t i, std::size_t j) const {
  GNN4IP_ENSURE(i < size() && j < size(),
                "PairwiseScorer: pair index out of range");
  return cosine_pair(row(i), row(j));
}

}  // namespace gnn4ip::core
