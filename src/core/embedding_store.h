// Contiguous embedding-row storage — the resident half of a corpus.
//
// One design = one D-float row plus its name. The store keeps rows in a
// single row-major buffer (cache-friendly for the blocked kernels, and
// zero-copy viewable through row()/rows()), and stays bounded through
// the two-phase removal API: remove(i) tombstones a row (cheap,
// batchable), compact() erases every tombstoned row in one pass and
// reports the old→new index remapping. retire() is the lazy variant the
// sharded corpora use: tombstones become holes that keep their row
// numbers, and the store is rewritten only once holes reach 1/8 of it.
//
// The store holds no scoring logic and no locks — it is the shard
// unit, guarded *externally* by whoever owns it: ShardedCorpus holds
// one SharedMutex stripe per store (rank 110+shard in the global lock
// order, src/util/lock_order.h) and every access to shards_[s] happens
// under stripes_[s]. That per-element guard is outside what the static
// capability analysis can express, which is why none of these fields
// carry GNN4IP_GUARDED_BY — the runtime lock-order validator covers
// the stripes instead. PairwiseScorer wraps exactly one store (the
// single-shard view kept for tests and benches); ShardedCorpus owns K
// of them and merges across; audit::AuditService sits on top of the
// latter.
//
// The store is also the unit of persistence: save()/load() round-trip
// the rows, names, and tombstones through the binary shard format of
// core/snapshot_format.h (byte-level spec in docs/FORMATS.md). Floats
// are written as their exact bytes, so a loaded store scores
// bit-identically to the one that was saved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/cosine_kernels.h"
#include "tensor/matrix.h"
#include "util/contract.h"

namespace gnn4ip::core {

class EmbeddingStore {
 public:
  /// "No such row": returned by compact() for removed rows.
  static constexpr std::size_t kNoIndex =
      std::numeric_limits<std::size_t>::max();

  /// Append one design's embedding (a 1×D matrix, or any shape viewed as
  /// a flat D-vector; D is fixed by the first add). Returns its index.
  std::size_t add(std::string name, const tensor::Matrix& embedding);

  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] bool empty() const { return names_.empty(); }
  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] const std::string& name(std::size_t i) const;

  /// Zero-copy view of row `i` of the store (length dim()).
  /// Invalidated by add/compact, like a vector iterator.
  [[nodiscard]] std::span<const float> row(std::size_t i) const;

  /// Zero-copy view of the whole store as a flat row-major size()×dim()
  /// buffer. Same invalidation rules as row().
  [[nodiscard]] std::span<const float> rows() const { return data_; }

  // ---- Cached norms and the int8 quantized tier -------------------------
  // Maintained incrementally by add()/compact() and rebuilt (or verified
  // against the optional QNT8 snapshot section) by load(): each float
  // row x decomposes as x = scale·q + e with int8 q and |e[k]| ≤
  // scale/2, alongside the exact float row_norm every scoring kernel
  // divides by — together exactly what quantized_cosine_bounds needs to
  // enclose an exact cosine cell without touching the float row.

  /// fl(row_norm(row(i))) — cached at add time with the exact kernel
  /// arithmetic, so norm(i) is bit-identical to recomputing it.
  [[nodiscard]] float norm(std::size_t i) const;

  /// All cached norms as a contiguous size()-length span (row order).
  [[nodiscard]] std::span<const float> norms() const { return norms_; }

  /// Zero-copy view of row i's int8 quantized components (length dim()).
  [[nodiscard]] std::span<const std::int8_t> qrow(std::size_t i) const;

  /// Row i's quant-tier summary for the bound kernel (pointer valid
  /// under the same invalidation rules as row()).
  [[nodiscard]] QuantRowView quant_view(std::size_t i) const;

  /// SoA view over all rows' candidate-side gate terms, exactly the
  /// doubles make_quant_gate derives (scale, s·‖q‖, ‖e‖, double(norm))
  /// plus the float norms — maintained incrementally so prefilter
  /// sweeps never rebuild per-row stats per call. Same invalidation
  /// rules as row(); tombstoned rows keep stale-but-finite entries
  /// (callers filter on live()).
  [[nodiscard]] QuantStatsSoa quant_stats() const {
    return {gate_scale_.data(), gate_sq_.data(), gate_e_.data(),
            gate_normd_.data(), norms_.data()};
  }

  /// Tombstone row `i`: it keeps its index (and name(i)) — and its data
  /// stays positionally addressable through row() — but it is skipped by
  /// live-row consumers and erased by the next compact() (or held as a
  /// hole by the next retire()).
  void remove(std::size_t i);

  /// True while row `i` has not been removed. Inline: the screening
  /// sweeps test it once per candidate.
  [[nodiscard]] bool live(std::size_t i) const {
    GNN4IP_ENSURE(i < names_.size(), "EmbeddingStore: index out of range");
    return !dead_[i];
  }

  /// Rows not yet removed.
  [[nodiscard]] std::size_t live_count() const { return live_count_; }

  /// Holes: dead rows retire() kept in place (see below).
  [[nodiscard]] std::size_t hole_count() const { return holes_; }

  /// retire() rewrites the store once holes reach 1/kReclaimDivisor of
  /// its rows.
  static constexpr std::size_t kReclaimDivisor = 8;

  /// Turn every tombstone into a hole: a dead row that keeps its row
  /// number (and stays !live(), so every sweep skips it) but that save()
  /// never writes. Once holes reach 1/kReclaimDivisor of size(), the
  /// store is compacted instead. Returns compact()'s mapping shape:
  /// result[old] = new row or kNoIndex — the identity for live rows when
  /// nothing is reclaimed. Two stores holding the same rows, holes
  /// and tombstones retire to the same numbering.
  std::vector<std::size_t> retire();

  /// Erase every removed row (holes included) in one pass. Returns the
  /// index remapping:
  /// result[old_index] is the row's new index, or kNoIndex if it was
  /// removed. No-op (identity mapping) when nothing is removed.
  std::vector<std::size_t> compact();

  /// The stored embeddings as an N×D row matrix (copy; prefer rows()/
  /// row() when a view suffices).
  [[nodiscard]] tensor::Matrix embedding_matrix() const;

  // ---- Persistence (binary shard format v1) -----------------------------
  /// Write the store — header, exact float bytes, live flags, name
  /// table — to `os` (caller opens the stream in binary mode). Holes are
  /// left out, so the file is the one the eagerly compacted store writes.
  void save(std::ostream& os) const;

  /// Reconstruct a store saved by save(). With `expected_dim` > 0 the
  /// on-disk dimensionality must match it. Throws the typed errors of
  /// snapshot_format.h: SnapshotMagicError, SnapshotVersionError,
  /// SnapshotByteOrderError, SnapshotDimError, SnapshotTruncatedError,
  /// SnapshotManifestError (header/payload disagreement).
  [[nodiscard]] static EmbeddingStore load(std::istream& is,
                                           std::size_t expected_dim = 0);

 private:
  /// Recompute row i's cached norm and quant-tier entries from data_.
  void requantize_row(std::size_t i);

  std::size_t dim_ = 0;
  std::vector<std::string> names_;
  std::vector<float> data_;  // row-major N×dim_
  std::vector<bool> dead_;   // tombstones and holes; erased by compact()
  std::vector<bool> hole_;   // dead rows retire() kept in place
  std::size_t live_count_ = 0;
  std::size_t holes_ = 0;
  // Quant tier, parallel to data_ (row i owns qdata_[i*dim_..), one
  // scalar per row in the others). Rebuilt deterministically from the
  // float rows, so a loaded store's tier matches the saved one exactly.
  std::vector<std::int8_t> qdata_;  // row-major N×dim_
  std::vector<float> scales_;       // per-row symmetric scale (max|x|/127)
  std::vector<float> norms_;        // fl(row_norm) — exact denominators
  std::vector<float> qnorms_;       // upper bound on ‖q‖₂
  std::vector<float> enorms_;       // upper bound on ‖x − scale·q‖₂
  // Candidate-side gate terms (quant_stats()), derived from the floats
  // above with make_quant_gate's exact arithmetic.
  std::vector<double> gate_scale_;  // double(scale)
  std::vector<double> gate_sq_;     // double(scale)·qnorm
  std::vector<double> gate_e_;      // double(enorm)
  std::vector<double> gate_normd_;  // double(norm)
};

}  // namespace gnn4ip::core
