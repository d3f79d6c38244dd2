// Per-store retrieval sweeps and the merges over them: ShardedCorpus
// runs the sweeps once per shard and dist::ShardServer once per request
// on its own store, and both front ends (ShardedCorpus, dist::DistCorpus)
// merge through the functions here, so in-process and remote results are
// bit-identical because there is one copy of each decision. Sweep
// results are keyed by the store's local row; within one store local
// order equals global order, so merges rank on global indices with the
// same tie-breaks. Both front ends also keep their global index space
// through the helpers at the end of this file.
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

/// The screening view of row `i` of `store`.
[[nodiscard]] ScreenProbe screen_probe(const EmbeddingStore& store,
                                       std::size_t i);

/// Screen every probe against the live rows among `store`'s first
/// `limit`: flagged matches (exact similarity > delta, ascending local
/// index), the best (the first maximum in local order), and the tallies.
/// Exhaustive without `prefilter`. With it, one fused quant_screen_sweep
/// per probe picks the rescore class (bounds that straddle delta); the
/// best exact value among it is a witness T, and quant_survivor_scan
/// keeps the band of pruned candidates with num ≥ T·den — anything below
/// scores strictly under the witness, so it can never be the best. The
/// band is then walked in descending bound order, rescoring until no
/// remaining bound can beat or index-tie-break the best, so the returned
/// best is settled. Indices are store-local.
[[nodiscard]] std::vector<ScreenRow> store_screen(
    const EmbeddingStore& store, std::size_t limit,
    std::span<const ScreenProbe> probes, float delta, bool prefilter,
    const KernelOps& ops);

/// Every pair of live rows among `store`'s first `limit` with exact
/// similarity > delta, as store-local (a, b) with a < b, ascending. Each
/// live row b is screened with store_screen against its prefix [0, b),
/// so each unordered pair is found once; cosine_cell is bit-symmetric,
/// so the similarity is the one any (a, b) enumeration computes.
[[nodiscard]] std::vector<PairScore> store_flag(const EmbeddingStore& store,
                                                std::size_t limit,
                                                float delta, bool prefilter,
                                                const KernelOps& ops);

/// Merge per-store screens into global rows: `parts[s][r]` is probe r's
/// store_screen row over store s, and `globals[s][local]` the global
/// index of that store's row. Flags are re-keyed and concatenated, then
/// sorted by ascending global index; the best is the maximum under
/// (similarity desc, global index asc) — each store's best is its true
/// first maximum, so this is the global first maximum; tallies are
/// summed.
[[nodiscard]] std::vector<ScreenRow> merge_screen(
    std::span<const std::vector<ScreenRow>> parts,
    std::span<const std::vector<std::size_t>> globals);

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

// ---- The sharded global index space ---------------------------------------

/// Where a global index lives: which store, and which local row.
struct ShardRef {
  std::size_t shard = 0;
  std::size_t local = 0;
};

/// How many of a store's rows have a global index below `n`, given the
/// store's local → global table (holes read kNoIndex): rows admitted
/// after a snapshot of size n form a suffix of the store.
[[nodiscard]] std::size_t prefix_below(std::span<const std::size_t> globals,
                                       std::size_t n);

/// compact() of a sharded corpus: every store retires its tombstones
/// (EmbeddingStore::retire), then one pass over `entries` (global →
/// ShardRef, ascending) renumbers the survivors densely in insertion
/// order, in place, and rewrites `globals[s][local]` (kNoIndex for a
/// hole). Returns result[old_global] = new_global or kNoIndex — the
/// same for any shard count.
[[nodiscard]] std::vector<std::size_t> retire_and_renumber(
    std::span<EmbeddingStore> stores, std::vector<ShardRef>& entries,
    std::span<std::vector<std::size_t>> globals);

namespace detail {

/// A candidate the prefilter pruned from the screen's rescore class that
/// may still be the best match: its local row and upper bound.
struct BandCandidate {
  std::size_t local = 0;
  float ub = 0.0F;
};

/// Resolve `row.best` against the band: walk it in descending bound
/// order (ascending local index on ties), rescoring exactly until no
/// remaining bound can beat or index-tie-break the best. Every rescore
/// counts in row.rescored. Exposed for tests.
void settle_best(std::vector<BandCandidate>& band, const ScreenProbe& probe,
                 const EmbeddingStore& store, ScreenRow& row);

}  // namespace detail

}  // namespace gnn4ip::core
