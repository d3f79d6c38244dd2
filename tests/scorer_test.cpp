// PairwiseScorer tests: thread-count invariance, parity with the
// per-pair embed-and-cosine path, and the blocked kernel's geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/gnn4ip.h"
#include "core/pairwise_scorer.h"
#include "data/corpus.h"
#include "tensor/tape.h"
#include "util/contract.h"

namespace gnn4ip::core {
namespace {

/// The pre-existing per-pair scoring path (PiracyDetector::similarity):
/// embed both members, clamped cosine.
float per_pair_cosine(gnn::Hw2Vec& model, const train::GraphEntry& a,
                      const train::GraphEntry& b) {
  const tensor::Matrix ha = model.embed_inference(a.tensors);
  const tensor::Matrix hb = model.embed_inference(b.tensors);
  const float denom = std::max(
      ha.frobenius_norm() * hb.frobenius_norm(), 1e-8F);
  return std::clamp(tensor::dot(ha, hb) / denom, -1.0F, 1.0F);
}

std::vector<train::GraphEntry> small_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity16", "counter8"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

TEST(EmbeddingStore, AddNameRowAndDimAccounting) {
  EmbeddingStore store;
  EXPECT_TRUE(store.empty());
  const tensor::Matrix a = tensor::Matrix::from_rows({{1, 2, 3}});
  const tensor::Matrix b = tensor::Matrix::from_rows({{4, 5, 6}});
  EXPECT_EQ(store.add("a", a), 0u);
  EXPECT_EQ(store.add("b", b), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dim(), 3u);
  EXPECT_EQ(store.name(0), "a");
  EXPECT_EQ(store.name(1), "b");
  EXPECT_EQ(store.row(1)[0], 4.0F);
  EXPECT_EQ(store.rows().size(), 6u);
  // Dim is fixed by the first add.
  const tensor::Matrix wide = tensor::Matrix::from_rows({{1, 2, 3, 4}});
  EXPECT_THROW((void)store.add("wide", wide), util::ContractViolation);
}

TEST(EmbeddingStore, RemoveCompactRemapsAndPreservesSurvivors) {
  EmbeddingStore store;
  (void)store.add("a", tensor::Matrix::from_rows({{1, 0}}));
  (void)store.add("b", tensor::Matrix::from_rows({{2, 0}}));
  (void)store.add("c", tensor::Matrix::from_rows({{3, 0}}));
  store.remove(1);
  EXPECT_FALSE(store.live(1));
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_THROW(store.remove(1), util::ContractViolation);  // already gone

  const std::vector<std::size_t> mapping = store.compact();
  ASSERT_EQ(mapping.size(), 3u);
  EXPECT_EQ(mapping[0], 0u);
  EXPECT_EQ(mapping[1], EmbeddingStore::kNoIndex);
  EXPECT_EQ(mapping[2], 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.name(1), "c");
  EXPECT_EQ(store.row(1)[0], 3.0F);
  // Idempotent when nothing is tombstoned: identity mapping.
  const std::vector<std::size_t> identity = store.compact();
  EXPECT_EQ(identity, (std::vector<std::size_t>{0, 1}));
}

TEST(CosinePair, MatchesCosineRowsCellBitForBit) {
  // The fused pair kernel and the precomputed-norm matrix kernel must
  // agree exactly — the cross-layer determinism contract.
  const tensor::Matrix m =
      tensor::Matrix::from_rows({{0.3F, -1.7F, 2.2F}, {5.0F, 0.01F, -3.3F}});
  const tensor::Matrix s = cosine_rows(m, m);
  EXPECT_EQ(cosine_pair(m.row(0), m.row(1)), s.at(0, 1));
  EXPECT_EQ(cosine_pair(m.row(0), m.row(0)), s.at(0, 0));
  EXPECT_THROW((void)cosine_pair(m.row(0), m.row(0).subspan(1)),
               util::ContractViolation);
}

TEST(CosineRows, MatchesHandComputedValues) {
  const tensor::Matrix a = tensor::Matrix::from_rows({{1, 0}, {1, 1}});
  const tensor::Matrix b =
      tensor::Matrix::from_rows({{0, 2}, {3, 0}, {-1, 0}});
  const tensor::Matrix s = cosine_rows(a, b);
  ASSERT_EQ(s.rows(), 2u);
  ASSERT_EQ(s.cols(), 3u);
  EXPECT_NEAR(s.at(0, 0), 0.0F, 1e-6F);
  EXPECT_NEAR(s.at(0, 1), 1.0F, 1e-6F);
  EXPECT_NEAR(s.at(0, 2), -1.0F, 1e-6F);
  const float inv_sqrt2 = 1.0F / std::sqrt(2.0F);
  EXPECT_NEAR(s.at(1, 0), inv_sqrt2, 1e-6F);
  EXPECT_NEAR(s.at(1, 1), inv_sqrt2, 1e-6F);
  EXPECT_NEAR(s.at(1, 2), -inv_sqrt2, 1e-6F);
}

TEST(CosineRows, ZeroRowScoresZero) {
  const tensor::Matrix a = tensor::Matrix::from_rows({{0, 0}, {1, 2}});
  const tensor::Matrix s = cosine_rows(a, a);
  EXPECT_FLOAT_EQ(s.at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(s.at(0, 1), 0.0F);
  EXPECT_NEAR(s.at(1, 1), 1.0F, 1e-6F);
}

TEST(CosineRows, DimensionMismatchThrows) {
  const tensor::Matrix a(2, 3);
  const tensor::Matrix b(2, 4);
  EXPECT_THROW((void)cosine_rows(a, b), util::ContractViolation);
}

TEST(PairwiseScorer, ScoresIdenticalAcross1And2And8Threads) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  std::vector<tensor::Matrix> per_thread_scores;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ScorerOptions options;
    options.num_threads = threads;
    options.block_rows = 2;  // several tiles even on this small corpus
    const PairwiseScorer scorer =
        PairwiseScorer::from_entries(model, entries, options);
    per_thread_scores.push_back(scorer.score_matrix());
  }
  ASSERT_EQ(per_thread_scores.size(), 3u);
  // Every cell is computed independently from the cached rows, so the
  // result must be bit-identical, not just close.
  EXPECT_EQ(tensor::max_abs_diff(per_thread_scores[0], per_thread_scores[1]),
            0.0F);
  EXPECT_EQ(tensor::max_abs_diff(per_thread_scores[0], per_thread_scores[2]),
            0.0F);
}

TEST(PairwiseScorer, EmbeddingsIdenticalAcross1And2And8Workers) {
  // from_entries fans the embedding phase out over the worker pool; the
  // cached N×D matrix must be bit-identical for any worker count.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  std::vector<tensor::Matrix> per_count;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ScorerOptions options;
    options.num_threads = threads;
    per_count.push_back(
        PairwiseScorer::from_entries(model, entries, options)
            .embedding_matrix());
  }
  ASSERT_EQ(per_count.size(), 3u);
  EXPECT_EQ(tensor::max_abs_diff(per_count[0], per_count[1]), 0.0F);
  EXPECT_EQ(tensor::max_abs_diff(per_count[0], per_count[2]), 0.0F);
}

TEST(PairwiseScorer, MatchesPerPairPathWithin1e5) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const PairwiseScorer scorer = PairwiseScorer::from_entries(model, entries);
  const tensor::Matrix scores = scorer.score_matrix();
  ASSERT_EQ(scores.rows(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      const float reference = per_pair_cosine(model, entries[i], entries[j]);
      EXPECT_NEAR(scores.at(i, j), reference, 1e-5F)
          << "pair (" << entries[i].name << ", " << entries[j].name << ")";
      EXPECT_NEAR(scorer.score(i, j), reference, 1e-5F);
    }
  }
}

TEST(PairwiseScorer, ScoreAllPairsMatchesMatrixUpperTriangle) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const PairwiseScorer scorer = PairwiseScorer::from_entries(model, entries);
  const tensor::Matrix scores = scorer.score_matrix();
  const std::vector<PairScore> pairs = scorer.score_all_pairs();
  const std::size_t n = entries.size();
  ASSERT_EQ(pairs.size(), n * (n - 1) / 2);
  for (const PairScore& p : pairs) {
    EXPECT_LT(p.a, p.b);
    EXPECT_FLOAT_EQ(p.similarity, scores.at(p.a, p.b));
  }
}

TEST(PairwiseScorer, ScoreAgainstMatchesJointMatrix) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 4u);
  PairwiseScorer left;
  PairwiseScorer right;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    auto& side = (i % 2 == 0) ? left : right;
    side.add(entries[i].name, model.embed_inference(entries[i].tensors));
  }
  const tensor::Matrix cross = left.score_against(right);
  ASSERT_EQ(cross.rows(), left.size());
  ASSERT_EQ(cross.cols(), right.size());
  for (std::size_t i = 0; i < left.size(); ++i) {
    for (std::size_t j = 0; j < right.size(); ++j) {
      EXPECT_NEAR(cross.at(i, j),
                  per_pair_cosine(model, entries[2 * i], entries[2 * j + 1]),
                  1e-5F);
    }
  }
}

TEST(PairwiseScorer, ScoreAgainstSpanPathMatchesMatrixCopyBitForBit) {
  // score_against reads both caches through spans — no N×D staging copy.
  // The removed copy must be purely an allocation saving: the result has
  // to carry the exact bits of the Matrix-copy overload on the same
  // rows, and empty sides keep their shaped-zero contract.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 4u);
  PairwiseScorer left;
  PairwiseScorer right;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    auto& side = (i % 2 == 0) ? left : right;
    side.add(entries[i].name, model.embed_inference(entries[i].tensors));
  }
  const tensor::Matrix via_span = left.score_against(right);
  const tensor::Matrix via_copy = cosine_rows(
      left.embedding_matrix(), right.embedding_matrix(), left.options());
  ASSERT_EQ(via_span.rows(), via_copy.rows());
  ASSERT_EQ(via_span.cols(), via_copy.cols());
  for (std::size_t i = 0; i < via_copy.rows(); ++i) {
    for (std::size_t j = 0; j < via_copy.cols(); ++j) {
      EXPECT_EQ(via_span.at(i, j), via_copy.at(i, j))
          << "cell (" << i << "," << j << ")";
    }
  }
  const PairwiseScorer empty;
  const tensor::Matrix left_empty = empty.score_against(right);
  EXPECT_EQ(left_empty.rows(), 0u);
  EXPECT_EQ(left_empty.cols(), right.size());
  const tensor::Matrix right_empty = left.score_against(empty);
  EXPECT_EQ(right_empty.rows(), left.size());
  EXPECT_EQ(right_empty.cols(), 0u);
}

TEST(EmbeddingStore, CachedNormsMatchKernelRecomputationBitForBit) {
  // The store caches fl(row_norm) at add time and keeps it through
  // compact(); every scoring layer divides by these cached values, so
  // they must be indistinguishable from recomputation.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  EmbeddingStore store;
  for (const auto& entry : entries) {
    store.add(entry.name, model.embed_inference(entry.tensors));
  }
  ASSERT_EQ(store.norms().size(), store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.norm(i), row_norm(store.row(i))) << "row " << i;
  }
  store.remove(1);
  (void)store.compact();
  for (std::size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(store.norm(i), row_norm(store.row(i))) << "row " << i;
  }
}

TEST(PairwiseScorer, FlagReturnsSortedPairsAboveDelta) {
  PairwiseScorer scorer;
  const tensor::Matrix e1 = tensor::Matrix::from_rows({{1, 0}});
  const tensor::Matrix e2 = tensor::Matrix::from_rows({{1, 0.1F}});
  const tensor::Matrix e3 = tensor::Matrix::from_rows({{0, 1}});
  scorer.add("a", e1);
  scorer.add("a_copy", e2);
  scorer.add("other", e3);
  const std::vector<PairScore> flagged = scorer.flag(0.5F);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].a, 0u);
  EXPECT_EQ(flagged[0].b, 1u);
  EXPECT_GT(flagged[0].similarity, 0.99F);
  EXPECT_EQ(scorer.name(flagged[0].b), "a_copy");
}

TEST(PairwiseScorer, ScoreNewRowsMatchesFullMatrixRows) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 4u);
  const PairwiseScorer scorer = PairwiseScorer::from_entries(model, entries);
  const std::size_t first_new = scorer.size() - 3;
  const tensor::Matrix fresh = scorer.score_new_rows(first_new);
  const tensor::Matrix full = scorer.score_matrix();
  ASSERT_EQ(fresh.rows(), 3u);
  ASSERT_EQ(fresh.cols(), scorer.size());
  for (std::size_t r = 0; r < fresh.rows(); ++r) {
    for (std::size_t j = 0; j < fresh.cols(); ++j) {
      EXPECT_EQ(fresh.at(r, j), full.at(first_new + r, j));
    }
  }
  // Nothing new: a 0×N result, not an error.
  EXPECT_EQ(scorer.score_new_rows(scorer.size()).rows(), 0u);
  EXPECT_THROW((void)scorer.score_new_rows(scorer.size() + 1),
               util::ContractViolation);
}

TEST(PairwiseScorer, TopKReturnsNearestNeighboursSorted) {
  PairwiseScorer scorer;
  scorer.add("east", tensor::Matrix::from_rows({{1, 0}}));
  scorer.add("near_east", tensor::Matrix::from_rows({{1, 0.1F}}));
  scorer.add("north", tensor::Matrix::from_rows({{0, 1}}));
  scorer.add("west", tensor::Matrix::from_rows({{-1, 0}}));
  const std::vector<PairScore> nearest = scorer.top_k(0, 2);
  ASSERT_EQ(nearest.size(), 2u);
  EXPECT_EQ(nearest[0].a, 0u);
  EXPECT_EQ(nearest[0].b, 1u);  // near_east
  EXPECT_EQ(nearest[1].b, 2u);  // north (cos 0) beats west (cos −1)
  EXPECT_GE(nearest[0].similarity, nearest[1].similarity);
  EXPECT_FLOAT_EQ(nearest[0].similarity, scorer.score(0, 1));
  // k larger than the corpus: every other row, still sorted.
  EXPECT_EQ(scorer.top_k(0, 99).size(), 3u);
  EXPECT_THROW((void)scorer.top_k(scorer.size(), 1),
               util::ContractViolation);
}

TEST(PairwiseScorer, TopKAgreesWithScoreAllPairs) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const PairwiseScorer scorer = PairwiseScorer::from_entries(model, entries);
  const std::size_t i = 1;
  const std::vector<PairScore> nearest = scorer.top_k(i, scorer.size() - 1);
  ASSERT_EQ(nearest.size(), scorer.size() - 1);
  for (const PairScore& p : nearest) {
    EXPECT_EQ(p.a, i);
    EXPECT_FLOAT_EQ(p.similarity, scorer.score(i, p.b));
  }
  for (std::size_t r = 1; r < nearest.size(); ++r) {
    EXPECT_GE(nearest[r - 1].similarity, nearest[r].similarity);
  }
}

TEST(PairwiseScorer, CachedRowsMatchTapeOracleFor1And2And8Workers) {
  // from_entries embeds on the tape-free path; for any worker count the
  // cached rows must equal, bit for bit, the training forward recorded
  // on a tape.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  std::vector<tensor::Matrix> oracle;
  for (const train::GraphEntry& entry : entries) {
    tensor::Tape tape;
    util::Rng unused(0);
    oracle.push_back(
        model.embed(tape, entry.tensors, unused, /*training=*/false).value());
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ScorerOptions options;
    options.num_threads = threads;
    const tensor::Matrix cached =
        PairwiseScorer::from_entries(model, entries, options)
            .embedding_matrix();
    ASSERT_EQ(cached.rows(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::span<const float> row = cached.row(i);
      ASSERT_EQ(row.size(), oracle[i].size());
      for (std::size_t c = 0; c < row.size(); ++c) {
        EXPECT_EQ(row[c], oracle[i].data()[c])
            << "entry " << i << " with " << threads << " workers";
      }
    }
  }
}

TEST(PairwiseScorer, RowAccessorsAreZeroCopyViewsOfTheCache) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const PairwiseScorer scorer = PairwiseScorer::from_entries(model, entries);
  const tensor::Matrix copy = scorer.embedding_matrix();
  const std::span<const float> flat = scorer.rows();
  ASSERT_EQ(flat.size(), scorer.size() * scorer.dim());
  for (std::size_t i = 0; i < scorer.size(); ++i) {
    const std::span<const float> row = scorer.row(i);
    ASSERT_EQ(row.size(), scorer.dim());
    // row(i) and rows() alias the same resident buffer.
    EXPECT_EQ(row.data(), flat.data() + i * scorer.dim());
    for (std::size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(row[c], copy.at(i, c));
    }
  }
  EXPECT_THROW((void)scorer.row(scorer.size()), util::ContractViolation);
}

TEST(PairwiseScorer, RemoveTombstonesAndCompactRemaps) {
  PairwiseScorer scorer;
  scorer.add("east", tensor::Matrix::from_rows({{1, 0}}));
  scorer.add("near_east", tensor::Matrix::from_rows({{1, 0.1F}}));
  scorer.add("north", tensor::Matrix::from_rows({{0, 1}}));
  scorer.add("west", tensor::Matrix::from_rows({{-1, 0}}));
  ASSERT_EQ(scorer.live_count(), 4u);

  scorer.remove(1);  // drop near_east
  EXPECT_FALSE(scorer.live(1));
  EXPECT_TRUE(scorer.live(0));
  EXPECT_EQ(scorer.live_count(), 3u);
  EXPECT_EQ(scorer.size(), 4u);  // index space unchanged until compact
  EXPECT_THROW(scorer.remove(1), util::ContractViolation);

  // Removed rows are no longer neighbours or flaggable pairs.
  const std::vector<PairScore> nearest = scorer.top_k(0, 99);
  ASSERT_EQ(nearest.size(), 2u);
  EXPECT_EQ(nearest[0].b, 2u);  // north, not the dead near_east
  for (const PairScore& p : scorer.score_all_pairs()) {
    EXPECT_NE(p.a, 1u);
    EXPECT_NE(p.b, 1u);
  }

  const std::vector<std::size_t> mapping = scorer.compact();
  ASSERT_EQ(mapping.size(), 4u);
  EXPECT_EQ(mapping[0], 0u);
  EXPECT_EQ(mapping[1], PairwiseScorer::kNoIndex);
  EXPECT_EQ(mapping[2], 1u);
  EXPECT_EQ(mapping[3], 2u);
  ASSERT_EQ(scorer.size(), 3u);
  EXPECT_EQ(scorer.live_count(), 3u);
  EXPECT_EQ(scorer.name(0), "east");
  EXPECT_EQ(scorer.name(1), "north");
  EXPECT_EQ(scorer.name(2), "west");

  // top_k after remove/compact: indices agree with name(i).
  const std::vector<PairScore> after = scorer.top_k(0, 99);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(scorer.name(after[0].b), "north");
  EXPECT_EQ(scorer.name(after[1].b), "west");

  // Compacting with no tombstones is the identity.
  const std::vector<std::size_t> identity = scorer.compact();
  for (std::size_t i = 0; i < identity.size(); ++i) {
    EXPECT_EQ(identity[i], i);
  }
}

TEST(PairwiseScorer, FlagWithoutArgumentUsesOptionsDelta) {
  ScorerOptions options;
  options.delta = 0.9F;
  PairwiseScorer scorer(options);
  scorer.add("a", tensor::Matrix::from_rows({{1, 0}}));
  scorer.add("a_copy", tensor::Matrix::from_rows({{1, 0.1F}}));
  scorer.add("other", tensor::Matrix::from_rows({{0.7F, 0.7F}}));
  // At δ = 0.9 only the near-copy flags; the explicit-δ overload agrees.
  const std::vector<PairScore> implicit = scorer.flag();
  const std::vector<PairScore> explicit_delta = scorer.flag(0.9F);
  ASSERT_EQ(implicit.size(), 1u);
  ASSERT_EQ(explicit_delta.size(), implicit.size());
  EXPECT_EQ(implicit[0].b, explicit_delta[0].b);
  EXPECT_GT(scorer.flag(0.5F).size(), implicit.size());
}

TEST(CosineRows, SpanOverloadMatchesMatrixOverload) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const PairwiseScorer scorer = PairwiseScorer::from_entries(model, entries);
  const tensor::Matrix emb = scorer.embedding_matrix();
  const tensor::Matrix via_matrix = cosine_rows(emb, emb);
  const tensor::Matrix via_span = cosine_rows(
      scorer.rows(), scorer.size(), scorer.rows(), scorer.size(),
      scorer.dim());
  EXPECT_EQ(tensor::max_abs_diff(via_matrix, via_span), 0.0F);
}

TEST(PairwiseScorer, RejectsMismatchedEmbeddingDims) {
  PairwiseScorer scorer;
  scorer.add("a", tensor::Matrix(1, 4, 1.0F));
  EXPECT_THROW(scorer.add("b", tensor::Matrix(1, 5, 1.0F)),
               util::ContractViolation);
  EXPECT_THROW(scorer.add("c", tensor::Matrix()), util::ContractViolation);
}

TEST(PairwiseScorer, BlockSizeDoesNotChangeScores) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ScorerOptions tiny;
  tiny.block_rows = 1;
  ScorerOptions big;
  big.block_rows = 1024;
  const auto s1 =
      PairwiseScorer::from_entries(model, entries, tiny).score_matrix();
  const auto s2 =
      PairwiseScorer::from_entries(model, entries, big).score_matrix();
  EXPECT_EQ(tensor::max_abs_diff(s1, s2), 0.0F);
}

}  // namespace
}  // namespace gnn4ip::core
