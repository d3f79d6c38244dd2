#include "core/sharded_corpus.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

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
  const ShardRef e = entries_[i];
  util::ReaderLock stripe(*stripes_[e.shard]);
  return row_nolock(e);
}

void ShardedCorpus::remove(std::size_t i) {
  util::ReaderLock epoch(epoch_mu_);
  util::WriterLock index(index_mu_);
  GNN4IP_ENSURE(i < entries_.size(), "ShardedCorpus: remove out of range");
  const ShardRef e = entries_[i];
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
  const ShardRef e = entries_[i];
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
  // Each shard retires its tombstones into holes (rewritten only at the
  // 1/8 reclaim), then one pass renumbers the survivors densely in global
  // insertion order — the numbering a single-shard compact() would have
  // produced, so the mapping values never depend on the shard count.
  std::vector<std::size_t> mapping =
      retire_and_renumber(shards_, entries_, globals_);
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
  ShardRef a;
  ShardRef b;
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
  std::vector<ShardRef> query_refs;
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
  // Each shard walks its snapshot rows (tombstones included — this
  // kernel is positional, like the single-shard one) in local order and
  // scatters every cell to its global column.
  const auto run_shard = [&](std::size_t s) {
    const float* rows = shards_[s].rows().data();
    const std::span<const float> norms = shards_[s].norms();
    const std::size_t limit = prefix_below(globals_[s], n);
    for (std::size_t r = 0; r < new_rows; ++r) {
      const std::span<float> out = result.row(r);
      for (std::size_t local = 0; local < limit; ++local) {
        const std::size_t g = globals_[s][local];
        if (g == kNoIndex) continue;  // a hole has no column
        out[g] = cosine_cell(query_rows[r].data(), rows + local * d, d,
                             query_norms[r] * norms[local]);
      }
    }
  };
  fan_out(shards_.size(), run_shard);
  return result;
}

std::vector<ScreenRow> ShardedCorpus::screen_new_rows(std::size_t first_new,
                                                      float delta) const {
  util::ReaderLock epoch(epoch_mu_);
  std::vector<ShardRef> query_refs;
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
  if (new_rows == 0) return {};
  const StripeGuard stripes = lock_all_stripes_shared();
  std::vector<ScreenProbe> probes(new_rows);
  for (std::size_t r = 0; r < new_rows; ++r) {
    const ShardRef& e = query_refs[r];
    probes[r] = screen_probe(shards_[e.shard], e.local);
  }
  // Each shard screens its own candidates — live rows admitted before
  // first_new, an ascending prefix of the shard — with the one per-store
  // sweep the shard servers run too, and the front ends' one merge
  // re-keys and combines the settled rows.
  const KernelOps& ops = kernel_ops(options_.kernel);
  std::vector<std::vector<ScreenRow>> parts(shards_.size());
  const auto run_shard = [&](std::size_t s) {
    parts[s] = store_screen(shards_[s], prefix_below(globals_[s], first_new),
                            probes, delta, options_.int8_prefilter, ops);
  };
  fan_out(shards_.size(), run_shard);
  return merge_screen(parts, globals_);
}

std::vector<PairScore> ShardedCorpus::top_k(std::size_t i,
                                            std::size_t k) const {
  util::ReaderLock epoch(epoch_mu_);
  ShardRef query_ref;
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
    const std::size_t exclude =
        s == query_ref.shard ? query_ref.local : kNoIndex;
    for (const ScreenMatch& m :
         store_top_k(shards_[s], prefix_below(globals_[s], n), exclude,
                     shards_[query_ref.shard], query_ref.local, k,
                     options_.int8_prefilter, ops)) {
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
  for (const ShardRef& e : entries_) os << ' ' << e.shard;
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
  std::vector<ShardRef> entries;
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
  util::ReaderLock epoch(epoch_mu_);
  std::size_t n = 0;
  {
    util::ReaderLock index(index_mu_);
    n = entries_.size();
  }
  const StripeGuard stripes = lock_all_stripes_shared();
  const std::size_t shard_count = shards_.size();
  std::vector<std::size_t> limits(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    limits[s] = prefix_below(globals_[s], n);
  }
  // One task per shard pair s ≤ t: store_flag within a shard, and shard
  // s's live rows screened against shard t > s across shards. Each task
  // fills only its own bucket; flag_order is total, so the sorted union
  // is independent of shard count, worker count and bucket order.
  std::vector<std::pair<std::size_t, std::size_t>> tasks;
  for (std::size_t s = 0; s < shard_count; ++s) {
    for (std::size_t t = s; t < shard_count; ++t) tasks.emplace_back(s, t);
  }
  const KernelOps& ops = kernel_ops(options_.kernel);
  const bool prefilter = options_.int8_prefilter;
  std::vector<std::vector<PairScore>> buckets(tasks.size());
  const auto run_task = [&](std::size_t task) {
    const auto [s, t] = tasks[task];
    std::vector<PairScore>& out = buckets[task];
    if (s == t) {
      for (const PairScore& p :
           store_flag(shards_[s], limits[s], delta, prefilter, ops)) {
        out.push_back({globals_[s][p.a], globals_[s][p.b], p.similarity});
      }
      return;
    }
    std::vector<std::size_t> locals;
    std::vector<ScreenProbe> probes;
    for (std::size_t local = 0; local < limits[s]; ++local) {
      if (!shards_[s].live(local)) continue;
      locals.push_back(local);
      probes.push_back(screen_probe(shards_[s], local));
    }
    const std::vector<ScreenRow> rows =
        store_screen(shards_[t], limits[t], probes, delta, prefilter, ops);
    for (std::size_t p = 0; p < rows.size(); ++p) {
      const std::size_t ga = globals_[s][locals[p]];
      for (const ScreenMatch& m : rows[p].flagged) {
        // cosine_cell is bit-symmetric, so orienting the pair ascending
        // gives the similarity of the (a < b) enumeration.
        const std::size_t gb = globals_[t][m.index];
        out.push_back({std::min(ga, gb), std::max(ga, gb), m.similarity});
      }
    }
  };
  fan_out(tasks.size(), run_task);
  std::vector<PairScore> pairs;
  for (std::vector<PairScore>& bucket : buckets) {
    pairs.insert(pairs.end(), bucket.begin(), bucket.end());
  }
  std::sort(pairs.begin(), pairs.end(), flag_order);
  return pairs;
}

}  // namespace gnn4ip::core
