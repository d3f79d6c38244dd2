// Per-store retrieval sweeps: ShardedCorpus runs them once per shard and
// dist::ShardServer once per request on its own store, so in-process and
// remote results are bit-identical because there is one copy of each
// sweep. Results are keyed by the store's local row; within one store
// local order equals global order, so merges rank on global indices
// with the same tie-breaks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/corpus_backend.h"
#include "core/cosine_kernels.h"
#include "core/embedding_store.h"
#include "core/simd_dispatch.h"

namespace gnn4ip::core {

/// One screening probe: its float row, cached norm and int8 gate.
struct ScreenProbe {
  const float* row = nullptr;
  float norm = 0.0F;
  QuantGate gate;
};

/// A candidate the prefilter pruned from the screen's rescore class that
/// may still be the best match: its upper bound and where its row lives.
/// `index` is the tie-break index (store-local from store_screen; a
/// caller merging several stores re-keys it to the global index).
struct BandCandidate {
  std::size_t index = 0;
  float ub = 0.0F;
  std::size_t store = 0;
  std::size_t local = 0;
};

/// One probe's screen over one store: flagged matches (exact similarity
/// > delta, ascending local index), the best among the rescored, the
/// tallies, and the unresolved best band. Indices are store-local.
struct StoreScreen {
  ScreenRow row;
  std::vector<BandCandidate> band;
};

/// Screen every probe against the live rows among `store`'s first
/// `limit`. Exhaustive without `prefilter`. With it, one fused
/// quant_screen_sweep per probe picks the rescore class (bounds that
/// straddle delta); the best exact value among it is a witness T, and
/// quant_survivor_scan keeps the band of pruned candidates with
/// num ≥ T·den — anything below scores strictly under the witness, so
/// it can never be the best. The band is returned for settle_best.
[[nodiscard]] std::vector<StoreScreen> store_screen(
    const EmbeddingStore& store, std::size_t limit,
    std::span<const ScreenProbe> probes, float delta, bool prefilter,
    const KernelOps& ops);

/// Resolve `row.best` against a band: walk it in descending bound order
/// (ascending index on ties), rescoring exactly until no remaining bound
/// can beat or index-tie-break the best. `stores[c.store]` holds each
/// candidate's row; every rescore counts in row.rescored.
void settle_best(std::vector<BandCandidate> band, const ScreenProbe& probe,
                 std::span<const EmbeddingStore> stores, ScreenRow& row);

/// The k live rows among `store`'s first `limit` (row `exclude` left
/// out; pass EmbeddingStore::kNoIndex to keep every row) most similar to
/// row `query_row` of `query_store`, ranked by similarity descending,
/// local index ascending. Every similarity is the scalar cosine_cell.
///
/// With `prefilter`, the fused int8 quant_screen_sweep bounds every
/// candidate; the k best-bounded candidates are rescored exactly and the
/// smallest of those values is the threshold T. At least k candidates
/// score ≥ T, so a candidate whose bound is below T ranks strictly
/// below k others; quant_survivor_scan keeps only num ≥ T·den, and those
/// are rescored and ranked. The result is the exhaustive one, bit for
/// bit, with no sort over the whole prefix.
[[nodiscard]] std::vector<ScreenMatch> store_top_k(
    const EmbeddingStore& store, std::size_t limit, std::size_t exclude,
    const EmbeddingStore& query_store, std::size_t query_row, std::size_t k,
    bool prefilter, const KernelOps& ops);

/// Merge per-shard top_k lists (global candidate index in `b`): the
/// global top k is a subset of their union, so ranking the union by
/// (similarity desc, `b` asc) — a total order — and truncating
/// reproduces the single-store ranking.
[[nodiscard]] std::vector<PairScore> merge_top_k(std::vector<PairScore> merged,
                                                 std::size_t k);

}  // namespace gnn4ip::core
