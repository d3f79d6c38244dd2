#include "core/sharded_corpus.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "core/shard_sweep.h"
#include "core/snapshot_format.h"
#include "util/contract.h"
#include "util/thread_pool.h"

namespace gnn4ip::core {

ShardedCorpus::ShardedCorpus(std::size_t num_shards,
                             const ScorerOptions& options,
                             std::size_t shard_budget)
    : options_(options), shard_budget_(shard_budget) {
  GNN4IP_ENSURE(num_shards > 0, "ShardedCorpus: need at least one shard");
  shards_.resize(num_shards);
  globals_.resize(num_shards);
  stripes_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    stripes_.push_back(
        std::make_unique<util::SharedMutex>(util::lock_rank::stripe(s)));
  }
}

std::size_t ShardedCorpus::placement(std::string_view name,
                                     std::size_t num_shards) {
  GNN4IP_ENSURE(num_shards > 0, "ShardedCorpus: need at least one shard");
  // FNV-1a, 64-bit: stable across processes and platforms (std::hash is
  // not), so a design's shard is a durable property of its name.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h % num_shards);
}

ShardedCorpus::StripeGuard ShardedCorpus::lock_all_stripes_shared() const {
  return StripeGuard(stripes_);
}

std::size_t ShardedCorpus::add(std::string name,
                               const tensor::Matrix& embedding) {
  GNN4IP_ENSURE(!embedding.empty(), "ShardedCorpus: empty embedding");
  util::ReaderLock epoch(epoch_mu_);
  // The admission ticket: whoever wins index_mu_ next gets the next
  // global id, so interleaved admissions from several consumers fold
  // into one deterministic insertion order. The placed shard's stripe
  // nests inside (index before stripe everywhere), blocking only that
  // shard's readers for the append.
  util::WriterLock index(index_mu_);
  if (dim_ == 0) {
    dim_ = embedding.size();
  } else {
    GNN4IP_ENSURE(embedding.size() == dim_,
                  "ShardedCorpus: embedding dim " +
                      std::to_string(embedding.size()) + " != corpus dim " +
                      std::to_string(dim_));
  }
  const std::size_t s = placement(name, shards_.size());
  const std::size_t global = entries_.size();
  {
    util::WriterLock stripe(*stripes_[s]);
    const std::size_t local = shards_[s].add(std::move(name), embedding);
    entries_.push_back({s, local});
    globals_[s].push_back(global);
  }
  ++live_count_;
  return global;
}

std::size_t ShardedCorpus::size() const {
  util::ReaderLock index(index_mu_);
  return entries_.size();
}

std::size_t ShardedCorpus::dim() const {
  util::ReaderLock index(index_mu_);
  return dim_;
}

std::size_t ShardedCorpus::live_count() const {
  util::ReaderLock index(index_mu_);
  return live_count_;
}

const std::string& ShardedCorpus::name(std::size_t i) const {
  util::ReaderLock epoch(epoch_mu_);
  util::ReaderLock index(index_mu_);
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: index out of range");
  // Names are stable between compacts (EmbeddingStore::add never moves
  // the std::string storage of earlier names), so returning the
  // reference after dropping the locks is safe until the next compact().
  return shards_[entries_[i].shard].name(entries_[i].local);
}

std::span<const float> ShardedCorpus::row(std::size_t i) const {
  util::ReaderLock epoch(epoch_mu_);
  util::ReaderLock index(index_mu_);
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: row index out of range");
  const EntryRef e = entries_[i];
  util::ReaderLock stripe(*stripes_[e.shard]);
  return row_nolock(e);
}

void ShardedCorpus::remove(std::size_t i) {
  util::ReaderLock epoch(epoch_mu_);
  util::WriterLock index(index_mu_);
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: remove out of range");
  const EntryRef e = entries_[i];
  {
    util::WriterLock stripe(*stripes_[e.shard]);
    shards_[e.shard].remove(e.local);
  }
  --live_count_;
}

bool ShardedCorpus::live(std::size_t i) const {
  util::ReaderLock epoch(epoch_mu_);
  util::ReaderLock index(index_mu_);
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: index out of range");
  const EntryRef e = entries_[i];
  util::ReaderLock stripe(*stripes_[e.shard]);
  return shards_[e.shard].live(e.local);
}

std::vector<std::size_t> ShardedCorpus::compact() {
  // The global epoch: exclusive over every reader and admitter, so the
  // dense renumbering below can never be observed half-applied. The
  // index lock is still needed on top: size()/dim()/live_count()/
  // shard_of() read under index_mu_ alone (they never touch row data,
  // so they skip the epoch), and entries_/live_count_/globals_ are
  // about to be rewritten.
  util::WriterLock epoch(epoch_mu_);
  util::WriterLock index(index_mu_);
  // Compact each shard, then renumber the survivors densely in global
  // insertion order — the numbering a single-shard compact() would have
  // produced, so the mapping values never depend on the shard count.
  std::vector<std::vector<std::size_t>> local_maps(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    local_maps[s] = shards_[s].compact();
  }
  std::vector<std::size_t> mapping(entries_.size(), kNoIndex);
  std::vector<EntryRef> survivors;
  survivors.reserve(live_count_);
  for (std::size_t g = 0; g < entries_.size(); ++g) {
    const EntryRef& e = entries_[g];
    const std::size_t new_local = local_maps[e.shard][e.local];
    if (new_local == kNoIndex) continue;
    mapping[g] = survivors.size();
    survivors.push_back({e.shard, new_local});
  }
  entries_ = std::move(survivors);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    globals_[s].assign(shards_[s].size(), kNoIndex);
  }
  for (std::size_t g = 0; g < entries_.size(); ++g) {
    globals_[entries_[g].shard][entries_[g].local] = g;
  }
  live_count_ = entries_.size();
  return mapping;
}

std::size_t ShardedCorpus::shard_of(std::size_t i) const {
  util::ReaderLock index(index_mu_);
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: index out of range");
  return entries_[i].shard;
}

std::size_t ShardedCorpus::shard_live_count(std::size_t s) const {
  GNN4IP_ENSURE(s < shards_.size(), "ShardedCorpus: shard out of range");
  // Epoch shared: compact() rewrites the shard stores under the epoch
  // alone (it already excludes every stripe holder), so a bare stripe
  // lock would race with it.
  util::ReaderLock epoch(epoch_mu_);
  util::ReaderLock stripe(*stripes_[s]);
  return shards_[s].live_count();
}

const EmbeddingStore& ShardedCorpus::shard(std::size_t s) const {
  GNN4IP_ENSURE(s < shards_.size(), "ShardedCorpus: shard out of range");
  return shards_[s];
}

float ShardedCorpus::score(std::size_t i, std::size_t j) const {
  util::ReaderLock epoch(epoch_mu_);
  EntryRef a;
  EntryRef b;
  {
    util::ReaderLock index(index_mu_);
    GNN4IP_ENSURE(i < entries_.size() && j < entries_.size(),
                  "ShardedCorpus: pair index out of range");
    a = entries_[i];
    b = entries_[j];
  }
  const StripeGuard stripes = lock_all_stripes_shared();
  return cosine_pair(row_nolock(a), row_nolock(b));
}

tensor::Matrix ShardedCorpus::score_new_rows(std::size_t first_new) const {
  util::ReaderLock epoch(epoch_mu_);
  // Snapshot the index under index_mu_, then scan under the shard
  // stripes: rows admitted after the snapshot (global id ≥ n, or a
  // local slot past the snapshot of its shard) are skipped, so the
  // matrix is exactly the corpus as of entry.
  std::vector<EntryRef> query_refs;
  std::size_t n = 0;
  {
    util::ReaderLock index(index_mu_);
    GNN4IP_ENSURE(first_new <= entries_.size(),
                  "score_new_rows: first_new past the corpus end");
    n = entries_.size();
    query_refs.assign(entries_.begin() +
                          static_cast<std::ptrdiff_t>(first_new),
                      entries_.end());
  }
  const std::size_t new_rows = n - first_new;
  tensor::Matrix result(new_rows, n);
  if (new_rows == 0) return result;
  const StripeGuard stripes = lock_all_stripes_shared();
  // Query rows and norms resolve once on the coordinating thread (the
  // per-global row() lookup is a bounds-checked double indirection —
  // too heavy for the inner loop of the hot screening path); each shard
  // task then fills only the columns of its own entries (tombstones
  // included — this kernel is positional, like the single-shard one).
  // Every cell is written exactly once from the same two rows and the
  // same ascending-k arithmetic as PairwiseScorer::score_new_rows, so
  // the matrix is bit-identical for any shard count × worker count.
  const std::size_t d =
      query_refs.empty() ? 0 : row_nolock(query_refs[0]).size();
  std::vector<std::span<const float>> query_rows(new_rows);
  std::vector<float> query_norms(new_rows);
  for (std::size_t r = 0; r < new_rows; ++r) {
    query_rows[r] = row_nolock(query_refs[r]);
    // The store caches fl(row_norm) at add time — the same bits the old
    // per-call recomputation produced.
    query_norms[r] =
        shards_[query_refs[r].shard].norm(query_refs[r].local);
  }
  // Exact mode pins the scalar sweep (a loop over cosine_cell — the
  // same bits as always); exact_scoring == false dispatches the fused
  // row sweep to the resolved SIMD backend. Each shard sweeps its
  // contiguous row block into a scratch vector, then scatters by global
  // index — same cells, better locality than per-cell indirection.
  const KernelOps& ops = kernel_ops(
      options_.exact_scoring ? KernelBackend::kScalar : options_.kernel);
  const auto run_shard = [&](std::size_t s) {
    const EmbeddingStore& store = shards_[s];
    // Rows admitted after the snapshot form a suffix of the shard
    // (globals_[s] is ascending), so trimming the tail leaves exactly
    // the snapshot's rows, tombstones included (this kernel is
    // positional, like the single-shard one).
    std::size_t limit = store.size();
    while (limit > 0 && globals_[s][limit - 1] >= n) --limit;
    if (limit == 0) return;
    std::vector<float> sims(limit);
    for (std::size_t r = 0; r < new_rows; ++r) {
      ops.cosine_sweep(query_rows[r].data(), query_norms[r],
                       store.rows().data(), store.norms().data(), limit, d,
                       sims.data());
      const std::span<float> out = result.row(r);
      for (std::size_t local = 0; local < limit; ++local) {
        out[globals_[s][local]] = sims[local];
      }
    }
  };
  fan_out(shards_.size(), run_shard);
  return result;
}

std::vector<ScreenRow> ShardedCorpus::screen_new_rows(std::size_t first_new,
                                                      float delta) const {
  util::ReaderLock epoch(epoch_mu_);
  std::vector<EntryRef> query_refs;
  std::size_t n = 0;
  {
    util::ReaderLock index(index_mu_);
    GNN4IP_ENSURE(first_new <= entries_.size(),
                  "screen_new_rows: first_new past the corpus end");
    n = entries_.size();
    query_refs.assign(entries_.begin() +
                          static_cast<std::ptrdiff_t>(first_new),
                      entries_.end());
  }
  const std::size_t new_rows = n - first_new;
  std::vector<ScreenRow> result(new_rows);
  if (new_rows == 0) return result;
  const StripeGuard stripes = lock_all_stripes_shared();
  const std::size_t d = row_nolock(query_refs[0]).size();
  std::vector<ScreenProbe> probes(new_rows);
  for (std::size_t r = 0; r < new_rows; ++r) {
    const EntryRef& e = query_refs[r];
    probes[r] = {row_nolock(e).data(), shards_[e.shard].norm(e.local),
                 make_quant_gate(shards_[e.shard].quant_view(e.local), d)};
  }
  // Integer kernels are bit-identical across backends, so the int8
  // screen always uses the resolved backend — exact_scoring only pins
  // *float* arithmetic, and every float cell is the scalar cosine_cell
  // regardless.
  const KernelOps& ops = kernel_ops(options_.kernel);
  // Each shard screens its own candidates — live rows admitted before
  // first_new, an ascending prefix of the shard — with the one per-store
  // sweep the shard servers run too, then re-keys its partials to
  // global indices.
  std::vector<std::vector<StoreScreen>> partials(shards_.size());
  const auto run_shard = [&](std::size_t s) {
    std::size_t limit = shards_[s].size();
    while (limit > 0 && globals_[s][limit - 1] >= first_new) --limit;
    partials[s] = store_screen(shards_[s], limit, probes, delta,
                               options_.int8_prefilter, ops);
    for (StoreScreen& p : partials[s]) {
      for (ScreenMatch& m : p.row.flagged) m.index = globals_[s][m.index];
      if (p.row.best) p.row.best->index = globals_[s][p.row.best->index];
      for (BandCandidate& c : p.band) {
        c.index = globals_[s][c.local];
        c.store = s;
      }
    }
  };
  fan_out(shards_.size(), run_shard);

  // Merge under the fixed tie-breaks (flags by ascending global index,
  // best by max similarity then lowest index), then settle the best
  // against every shard's band at once.
  for (std::size_t r = 0; r < new_rows; ++r) {
    ScreenRow& out = result[r];
    std::vector<BandCandidate> band;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const StoreScreen& p = partials[s][r];
      out.scanned += p.row.scanned;
      out.rescored += p.row.rescored;
      out.flagged.insert(out.flagged.end(), p.row.flagged.begin(),
                         p.row.flagged.end());
      const std::optional<ScreenMatch>& b = p.row.best;
      if (b && (!out.best || b->similarity > out.best->similarity ||
                (b->similarity == out.best->similarity &&
                 b->index < out.best->index))) {
        out.best = b;
      }
      band.insert(band.end(), p.band.begin(), p.band.end());
    }
    std::sort(out.flagged.begin(), out.flagged.end(),
              [](const ScreenMatch& x, const ScreenMatch& y) {
                return x.index < y.index;
              });
    settle_best(std::move(band), probes[r], shards_, out);
  }
  return result;
}

std::vector<PairScore> ShardedCorpus::top_k(std::size_t i,
                                            std::size_t k) const {
  util::ReaderLock epoch(epoch_mu_);
  EntryRef query_ref;
  std::size_t n = 0;
  {
    util::ReaderLock index(index_mu_);
    GNN4IP_ENSURE(i < entries_.size(), "top_k: row index out of range");
    query_ref = entries_[i];
    n = entries_.size();
  }
  const StripeGuard stripes = lock_all_stripes_shared();
  GNN4IP_ENSURE(shards_[query_ref.shard].live(query_ref.local),
                "top_k: row has been removed");
  // Each shard ranks its own snapshot prefix with the one per-store
  // top_k the shard servers run too (core/shard_sweep.h); the merge
  // order is total over distinct global indices, so the result is
  // independent of shard count, worker count and arrival order.
  const KernelOps& ops = kernel_ops(options_.kernel);
  std::vector<std::vector<PairScore>> buckets(shards_.size());
  const auto run_shard = [&](std::size_t s) {
    std::size_t limit = shards_[s].size();
    while (limit > 0 && globals_[s][limit - 1] >= n) --limit;
    const std::size_t exclude =
        s == query_ref.shard ? query_ref.local : kNoIndex;
    for (const ScreenMatch& m :
         store_top_k(shards_[s], limit, exclude, shards_[query_ref.shard],
                     query_ref.local, k, options_.int8_prefilter, ops)) {
      buckets[s].push_back({i, globals_[s][m.index], m.similarity});
    }
  };
  fan_out(shards_.size(), run_shard);
  std::vector<PairScore> merged;
  for (std::vector<PairScore>& bucket : buckets) {
    merged.insert(merged.end(), bucket.begin(), bucket.end());
  }
  return merge_top_k(std::move(merged), k);
}

std::vector<PairScore> ShardedCorpus::score_all_pairs() const {
  util::ReaderLock epoch(epoch_mu_);
  // Fan out over the first member of each pair; worker w writes only
  // per_a[w], and the buckets concatenate in ascending-a order — the
  // exact pair order of the single-shard path. Rows and norms resolve
  // once up front (the store's cached norms carry the same ascending-k
  // row_norm bits the matrix kernel computes, so each cell stays
  // bit-identical to PairwiseScorer::score_all_pairs) instead of three
  // fused accumulators per pair recomputing every norm N−1 times.
  std::vector<std::size_t> live_ids;
  std::vector<EntryRef> live_refs;
  {
    util::ReaderLock index(index_mu_);
    live_ids.reserve(live_count_);
    live_refs.reserve(live_count_);
    for (std::size_t g = 0; g < entries_.size(); ++g) {
      const EntryRef& e = entries_[g];
      live_ids.push_back(g);  // liveness filtered under the stripes below
      live_refs.push_back(e);
    }
  }
  const StripeGuard stripes = lock_all_stripes_shared();
  std::size_t kept = 0;
  for (std::size_t idx = 0; idx < live_ids.size(); ++idx) {
    const EntryRef& e = live_refs[idx];
    if (!shards_[e.shard].live(e.local)) continue;
    live_ids[kept] = live_ids[idx];
    live_refs[kept] = e;
    ++kept;
  }
  live_ids.resize(kept);
  live_refs.resize(kept);
  const std::size_t d = live_refs.empty() ? 0 : row_nolock(live_refs[0]).size();
  std::vector<std::span<const float>> live_rows(live_ids.size());
  std::vector<float> norms(live_ids.size());
  for (std::size_t a = 0; a < live_ids.size(); ++a) {
    live_rows[a] = row_nolock(live_refs[a]);
    norms[a] = shards_[live_refs[a].shard].norm(live_refs[a].local);
  }
  std::vector<std::vector<PairScore>> per_a(live_ids.size());
  const auto score_row = [&](std::size_t a) {
    per_a[a].reserve(live_ids.size() - a - 1);
    const float* ra = live_rows[a].data();
    for (std::size_t b = a + 1; b < live_ids.size(); ++b) {
      per_a[a].push_back(
          {live_ids[a], live_ids[b],
           cosine_cell(ra, live_rows[b].data(), d, norms[a] * norms[b])});
    }
  };
  fan_out(live_ids.size(), score_row);
  std::vector<PairScore> pairs;
  pairs.reserve(kept * (kept > 0 ? kept - 1 : 0) / 2);
  for (std::vector<PairScore>& bucket : per_a) {
    pairs.insert(pairs.end(), bucket.begin(), bucket.end());
  }
  return pairs;
}

void ShardedCorpus::fan_out(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (options_.num_threads > 1) {
    // Concurrent consumers may race the first fan_out; the spawn is
    // one-time, so a plain mutex around the check is cheap enough. The
    // raw pointer is captured *under* the lock: the unique_ptr is
    // guarded, never reset once set, and outlives every fan-out, so the
    // pointee is safe to use after release.
    util::ThreadPool* pool = nullptr;
    {
      util::MutexLock lock(pool_mu_);
      if (!pool_) {
        pool_ = std::make_unique<util::ThreadPool>(options_.num_threads);
      }
      pool = pool_.get();
    }
    pool->parallel_for(count, fn);
    return;
  }
  // 0 = shared pool, 1 = inline — util::parallel_for already does the
  // right (transient-pool-free) thing for both.
  util::parallel_for(count, options_.num_threads, fn);
}

namespace {

/// Everything the text manifest records, parsed and range-checked
/// before any in-memory state is touched.
struct ManifestData {
  std::string fingerprint;
  std::size_t dim = 0;
  std::size_t shards = 0;
  std::vector<std::size_t> order;  // global index -> shard id
};

ManifestData parse_manifest(const std::filesystem::path& path) {
  std::ifstream is(path);
  if (!is) {
    throw SnapshotIoError("cannot open corpus manifest '" + path.string() +
                          "' for reading");
  }
  std::string line;
  if (!std::getline(is, line)) {
    throw SnapshotTruncatedError("corpus manifest is empty");
  }
  {
    std::istringstream ls(line);
    std::string magic;
    std::string version;
    ls >> magic >> version;
    if (magic != kManifestMagic) {
      throw SnapshotMagicError("not a corpus manifest (missing '" +
                               std::string(kManifestMagic) + "' magic)");
    }
    const std::string expected =
        "v" + std::to_string(kManifestFormatVersion);
    if (version != expected) {
      throw SnapshotVersionError("unsupported corpus manifest version '" +
                                 version + "'; this build reads " + expected);
    }
  }
  ManifestData manifest;
  const auto next_line = [&](const char* field) -> std::istringstream {
    if (!std::getline(is, line)) {
      throw SnapshotTruncatedError(
          std::string("corpus manifest truncated before the ") + field +
          " line");
    }
    return std::istringstream(line);
  };
  {
    std::istringstream ls = next_line("model");
    std::string tag;
    if (!(ls >> tag >> manifest.fingerprint) || tag != "model") {
      throw SnapshotManifestError("bad manifest model line: '" + line + "'");
    }
  }
  {
    std::istringstream ls = next_line("placement");
    std::string tag;
    std::string scheme;
    if (!(ls >> tag >> scheme) || tag != "placement") {
      throw SnapshotManifestError("bad manifest placement line: '" + line +
                                  "'");
    }
    if (scheme != kPlacementScheme) {
      throw SnapshotManifestError(
          "unknown placement scheme '" + scheme + "'; this build places by " +
          kPlacementScheme);
    }
  }
  {
    std::istringstream ls = next_line("dim");
    std::string tag;
    if (!(ls >> tag >> manifest.dim) || tag != "dim") {
      throw SnapshotManifestError("bad manifest dim line: '" + line + "'");
    }
  }
  {
    std::istringstream ls = next_line("shards");
    std::string tag;
    if (!(ls >> tag >> manifest.shards) || tag != "shards" ||
        manifest.shards == 0) {
      throw SnapshotManifestError("bad manifest shards line: '" + line + "'");
    }
  }
  std::size_t entries = 0;
  {
    std::istringstream ls = next_line("entries");
    std::string tag;
    if (!(ls >> tag >> entries) || tag != "entries") {
      throw SnapshotManifestError("bad manifest entries line: '" + line +
                                  "'");
    }
  }
  {
    std::istringstream ls = next_line("order");
    std::string tag;
    if (!(ls >> tag) || tag != "order") {
      throw SnapshotManifestError("bad manifest order line: '" + line + "'");
    }
    manifest.order.reserve(entries);
    std::size_t shard = 0;
    while (ls >> shard) {
      if (shard >= manifest.shards) {
        throw SnapshotManifestError(
            "manifest order references shard " + std::to_string(shard) +
            " but only " + std::to_string(manifest.shards) +
            " shards are declared");
      }
      manifest.order.push_back(shard);
    }
    if (manifest.order.size() != entries) {
      throw SnapshotManifestError(
          "manifest declares " + std::to_string(entries) +
          " entries but the order line lists " +
          std::to_string(manifest.order.size()));
    }
  }
  if (!std::getline(is, line) || line != "end") {
    throw SnapshotTruncatedError(
        "corpus manifest is missing its 'end' sentinel (truncated?)");
  }
  return manifest;
}

}  // namespace

void ShardedCorpus::save(const std::string& dir,
                         std::string_view model_fingerprint) const {
  // Epoch exclusive: every operation (reads, admissions, compaction)
  // holds the epoch shared, so an exclusive hold is a full quiesce of
  // the corpus — the snapshot is one consistent instant. The index lock
  // is redundant under that quiesce (no writer can be inside it), but
  // dim_/entries_ are read below and GUARDED_BY(index_mu_): taking it
  // shared makes the guard explicit instead of an argument in a
  // comment, for the analysis and the next reader alike.
  util::WriterLock epoch(epoch_mu_);
  util::ReaderLock index(index_mu_);
  const std::filesystem::path root(dir);
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    throw SnapshotIoError("cannot create snapshot directory '" + dir +
                          "': " + ec.message());
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::filesystem::path path = root / shard_file_name(s);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw SnapshotIoError("cannot open '" + path.string() +
                            "' for writing");
    }
    shards_[s].save(os);
    if (!os) {
      throw SnapshotIoError("short write to '" + path.string() + "'");
    }
  }
  const std::filesystem::path manifest_path = root / kManifestFileName;
  std::ofstream os(manifest_path, std::ios::trunc);
  if (!os) {
    throw SnapshotIoError("cannot open '" + manifest_path.string() +
                          "' for writing");
  }
  os << kManifestMagic << " v" << kManifestFormatVersion << '\n';
  os << "model " << model_fingerprint << '\n';
  os << "placement " << kPlacementScheme << '\n';
  os << "dim " << dim_ << '\n';
  os << "shards " << shards_.size() << '\n';
  os << "entries " << entries_.size() << '\n';
  os << "order";
  for (const EntryRef& e : entries_) os << ' ' << e.shard;
  os << '\n';
  os << "end\n";
  if (!os) {
    throw SnapshotIoError("short write to '" + manifest_path.string() + "'");
  }
}

void ShardedCorpus::restore(const std::string& dir,
                            std::string_view expected_fingerprint) {
  const std::filesystem::path root(dir);
  const ManifestData manifest = parse_manifest(root / kManifestFileName);
  if (!expected_fingerprint.empty() &&
      manifest.fingerprint != expected_fingerprint) {
    throw SnapshotFingerprintError(
        "snapshot was written against model fingerprint " +
        manifest.fingerprint + " but this corpus expects " +
        std::string(expected_fingerprint) +
        " — refusing to score rows from a different embedder");
  }
  // Load and cross-check everything into locals first: a snapshot that
  // fails any typed check leaves the in-memory corpus untouched.
  std::vector<EmbeddingStore> stores;
  stores.reserve(manifest.shards);
  for (std::size_t s = 0; s < manifest.shards; ++s) {
    const std::filesystem::path path = root / shard_file_name(s);
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      if (!std::filesystem::exists(path)) {
        throw SnapshotManifestError(
            "manifest declares " + std::to_string(manifest.shards) +
            " shards but '" + shard_file_name(s) +
            "' is missing (shard-count mismatch?)");
      }
      throw SnapshotIoError("cannot open '" + path.string() +
                            "' for reading");
    }
    stores.push_back(EmbeddingStore::load(is, manifest.dim));
  }
  // The manifest's global order must tally with the shard files: every
  // shard row is referenced exactly once, in shard-local insertion
  // order, and the recorded shard must match what placement() derives
  // from the row's name — a poisoned or mixed-up snapshot fails loudly.
  std::vector<std::vector<std::size_t>> globals(manifest.shards);
  std::vector<EntryRef> entries;
  entries.reserve(manifest.order.size());
  for (std::size_t g = 0; g < manifest.order.size(); ++g) {
    const std::size_t s = manifest.order[g];
    const std::size_t local = globals[s].size();
    if (local >= stores[s].size()) {
      throw SnapshotManifestError(
          "manifest order assigns more rows to shard " + std::to_string(s) +
          " than its file holds (" + std::to_string(stores[s].size()) + ")");
    }
    if (placement(stores[s].name(local), manifest.shards) != s) {
      throw SnapshotManifestError(
          "row '" + stores[s].name(local) + "' is recorded in shard " +
          std::to_string(s) + " but places in shard " +
          std::to_string(placement(stores[s].name(local), manifest.shards)) +
          " (placement drift)");
    }
    globals[s].push_back(g);
    entries.push_back({s, local});
  }
  std::size_t live = 0;
  for (std::size_t s = 0; s < manifest.shards; ++s) {
    if (stores[s].size() != 0 && stores[s].dim() != manifest.dim) {
      throw SnapshotDimError(
          "shard " + std::to_string(s) + " has dim " +
          std::to_string(stores[s].dim()) + " but the manifest declares " +
          std::to_string(manifest.dim) + " (dim drift)");
    }
    if (globals[s].size() != stores[s].size()) {
      throw SnapshotManifestError(
          "shard " + std::to_string(s) + " holds " +
          std::to_string(stores[s].size()) +
          " rows but the manifest order references " +
          std::to_string(globals[s].size()));
    }
    live += stores[s].live_count();
  }
  // Swap in under the epoch: identical discipline to compact(), the
  // other whole-corpus rewrite.
  util::WriterLock epoch(epoch_mu_);
  util::WriterLock index(index_mu_);
  shards_ = std::move(stores);
  entries_ = std::move(entries);
  globals_ = std::move(globals);
  dim_ = manifest.dim;
  live_count_ = live;
  while (stripes_.size() < shards_.size()) {
    stripes_.push_back(std::make_unique<util::SharedMutex>(
        util::lock_rank::stripe(stripes_.size())));
  }
  stripes_.resize(shards_.size());
}

std::unique_ptr<CorpusBackend> ShardedCorpus::restored(
    const std::string& dir, std::string_view expected_fingerprint) const {
  // restore() adopts the snapshot's shard count and dim, so a fresh
  // single-shard corpus is the universal starting point; options and
  // the per-shard budget carry over from the receiver.
  auto fresh = std::make_unique<ShardedCorpus>(1, options_, shard_budget_);
  fresh->restore(dir, expected_fingerprint);
  return fresh;
}

std::string ShardedCorpus::snapshot_fingerprint(const std::string& dir) {
  return parse_manifest(std::filesystem::path(dir) / kManifestFileName)
      .fingerprint;
}

std::vector<PairScore> ShardedCorpus::flag(float delta) const {
  if (options_.int8_prefilter) return flag_prefiltered(delta);
  std::vector<PairScore> pairs = score_all_pairs();
  std::erase_if(pairs,
                [delta](const PairScore& p) { return p.similarity <= delta; });
  std::sort(pairs.begin(), pairs.end(), flag_order);
  return pairs;
}

std::vector<PairScore> ShardedCorpus::flag_prefiltered(float delta) const {
  // Same fan-out shape as score_all_pairs, but each pair passes the int8
  // bound gate before the exact cell: a pair is skipped only when its
  // upper bound proves similarity ≤ delta — which the exact sweep would
  // have discarded anyway — and every surviving pair rescores with the
  // scalar kernel, so the flagged set is bit-identical to the exact
  // path's.
  util::ReaderLock epoch(epoch_mu_);
  std::vector<std::size_t> live_ids;
  std::vector<EntryRef> live_refs;
  {
    util::ReaderLock index(index_mu_);
    live_ids.reserve(live_count_);
    live_refs.reserve(live_count_);
    for (std::size_t g = 0; g < entries_.size(); ++g) {
      live_ids.push_back(g);  // liveness filtered under the stripes below
      live_refs.push_back(entries_[g]);
    }
  }
  const StripeGuard stripes = lock_all_stripes_shared();
  std::size_t kept = 0;
  for (std::size_t idx = 0; idx < live_ids.size(); ++idx) {
    const EntryRef& e = live_refs[idx];
    if (!shards_[e.shard].live(e.local)) continue;
    live_ids[kept] = live_ids[idx];
    live_refs[kept] = e;
    ++kept;
  }
  live_ids.resize(kept);
  live_refs.resize(kept);
  const std::size_t d = live_refs.empty() ? 0 : row_nolock(live_refs[0]).size();
  std::vector<std::span<const float>> live_rows(kept);
  std::vector<float> norms(kept);
  std::vector<QuantGate> gates(kept);
  std::vector<double> cd_scale(kept), cd_sq(kept), cd_e(kept), cd_norm(kept);
  for (std::size_t a = 0; a < kept; ++a) {
    const EntryRef& e = live_refs[a];
    live_rows[a] = row_nolock(e);
    norms[a] = shards_[e.shard].norm(e.local);
    gates[a] = make_quant_gate(shards_[e.shard].quant_view(e.local), d);
    cd_scale[a] = gates[a].scale;
    cd_sq[a] = gates[a].sq;
    cd_e[a] = gates[a].e;
    cd_norm[a] = gates[a].norm;
  }
  const QuantStatsSoa soa{cd_scale.data(), cd_sq.data(), cd_e.data(),
                          cd_norm.data(), norms.data()};
  const KernelOps& ops = kernel_ops(options_.kernel);
  // Same caveat as screen_new_rows: the margin sweep compares the
  // *unclamped* bound against delta, which only implies `exact ≤ delta`
  // for delta ≥ −1; below that every pair rescores (prune_max = −inf
  // makes everything a hit), which is exactly what the clamp demands.
  const double prune_max =
      delta >= -1.0F ? static_cast<double>(delta)
                     : -std::numeric_limits<double>::infinity();
  std::vector<std::vector<PairScore>> per_a(kept);
  const auto screen_row = [&](std::size_t a) {
    const float* ra = live_rows[a].data();
    const QuantGate& ga = gates[a];
    const std::size_t tail = kept - a - 1;
    if (tail == 0) return;
    // Rows of different shards are not contiguous, so the dots fill
    // stays per-pair; the bound test and hit compaction are one
    // vectorized sweep over the tail b ∈ (a, kept).
    std::vector<std::int32_t> dots(tail);
    std::vector<double> num(tail);
    std::vector<double> den(tail);
    std::vector<std::uint32_t> hits(tail);
    for (std::size_t b = a + 1; b < kept; ++b) {
      dots[b - a - 1] = ops.dot_i8(ga.q, gates[b].q, d);
    }
    const QuantStatsSoa tail_soa{soa.scale + a + 1, soa.sq + a + 1,
                                 soa.e + a + 1, soa.normd + a + 1,
                                 soa.normf + a + 1};
    const std::size_t n_hits =
        ops.quant_margin_sweep(make_sweep_query(ga), tail_soa, dots.data(),
                               tail, prune_max, num.data(), den.data(),
                               hits.data());
    for (std::size_t h = 0; h < n_hits; ++h) {
      const std::size_t b = a + 1 + hits[h];
      const float sim =
          cosine_cell(ra, live_rows[b].data(), d, norms[a] * norms[b]);
      if (sim > delta) per_a[a].push_back({live_ids[a], live_ids[b], sim});
    }
  };
  fan_out(kept, screen_row);
  std::vector<PairScore> pairs;
  for (std::vector<PairScore>& bucket : per_a) {
    pairs.insert(pairs.end(), bucket.begin(), bucket.end());
  }
  std::sort(pairs.begin(), pairs.end(), flag_order);
  return pairs;
}

}  // namespace gnn4ip::core
