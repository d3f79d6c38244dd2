// Snapshot + warm-restart tests: the acceptance bar for the durable
// corpus is twofold. (1) Fidelity — a restored EmbeddingStore /
// ShardedCorpus / AuditService scores bit-identically to the
// never-restarted one, cell by cell, across {1, 2, 4} shards × {1, 2,
// 8} workers, with names, tombstones, pins, the name index, and LRU
// recency all surviving the round trip. (2) Rejection — every
// malformed-snapshot case (bad magic, unsupported version, foreign
// byte order, dim drift, truncation, manifest/shard disagreement,
// wrong embedder fingerprint) fails with its *distinct typed*
// core::SnapshotError, never a crash, and leaves the in-memory state
// untouched.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "audit/admission_log.h"
#include "audit/async_auditor.h"
#include "audit/audit_service.h"
#include "core/embedding_store.h"
#include "core/gnn4ip.h"
#include "core/sharded_corpus.h"
#include "core/snapshot_format.h"
#include "scratch_dir.h"
#include "data/corpus.h"
#include "gnn/model_io.h"

namespace gnn4ip {
namespace {

std::vector<train::GraphEntry> small_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter", "pwm"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

std::vector<tensor::Matrix> embed_all(gnn::Hw2Vec& model,
                                      std::span<const train::GraphEntry> e) {
  std::vector<tensor::Matrix> out;
  out.reserve(e.size());
  for (const train::GraphEntry& entry : e) {
    out.push_back(model.embed_inference(entry.tensors));
  }
  return out;
}

/// Fresh (emptied) per-test snapshot directory inside this process's
/// own scratch root, which is removed at exit.
std::string snapshot_dir(const std::string& leaf) {
  static const test::ScratchDir root("gnn4ip_snapshot_test");
  return root.fresh(leaf);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

void spew(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_rows_equal(const core::EmbeddingStore& got,
                       const core::EmbeddingStore& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.dim(), want.dim());
  EXPECT_EQ(got.live_count(), want.live_count());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.name(i), want.name(i));
    EXPECT_EQ(got.live(i), want.live(i));
    const std::span<const float> g = got.row(i);
    const std::span<const float> w = want.row(i);
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t k = 0; k < w.size(); ++k) {
      EXPECT_EQ(g[k], w[k]) << "row " << i << " cell " << k;
    }
  }
}

// ---- EmbeddingStore: binary shard format ---------------------------------

core::EmbeddingStore sample_store() {
  core::EmbeddingStore store;
  tensor::Matrix a(1, 4, 0.0F);
  for (std::size_t c = 0; c < 4; ++c) a.at(0, c) = 0.25F * (c + 1);
  tensor::Matrix b(1, 4, -1.5F);
  tensor::Matrix c(1, 4, 3.25F);
  (void)store.add("crc8", a);
  (void)store.add("name with spaces", b);
  (void)store.add("", c);  // empty names are legal and must round-trip
  store.remove(1);         // tombstones are part of the persisted state
  return store;
}

std::string serialized_sample_store() {
  std::ostringstream os(std::ios::binary);
  sample_store().save(os);
  return os.str();
}

TEST(SnapshotStore, RoundTripIsExactIncludingTombstonesAndNames) {
  const core::EmbeddingStore original = sample_store();
  std::ostringstream os(std::ios::binary);
  original.save(os);
  std::istringstream is(os.str(), std::ios::binary);
  const core::EmbeddingStore loaded = core::EmbeddingStore::load(is, 4);
  expect_rows_equal(loaded, original);
}

TEST(SnapshotStore, EmptyStoreRoundTrips) {
  const core::EmbeddingStore empty;
  std::ostringstream os(std::ios::binary);
  empty.save(os);
  std::istringstream is(os.str(), std::ios::binary);
  const core::EmbeddingStore loaded = core::EmbeddingStore::load(is);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_EQ(loaded.dim(), 0u);
}

// Fixed header offsets of the v1 shard format (docs/FORMATS.md): magic
// [0, 8), version u32 @8, byte-order mark u32 @12, dim u64 @16, rows
// u64 @24, live u64 @32, float block @40.
TEST(SnapshotStore, LoadRejectsBadMagicTyped) {
  std::string bytes = serialized_sample_store();
  bytes[0] = 'X';
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is),
               core::SnapshotMagicError);
}

TEST(SnapshotStore, LoadRejectsUnsupportedVersionTyped) {
  std::string bytes = serialized_sample_store();
  bytes[8] = static_cast<char>(core::kShardFormatVersion + 1);
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is),
               core::SnapshotVersionError);
}

TEST(SnapshotStore, LoadRejectsForeignByteOrderTyped) {
  std::string bytes = serialized_sample_store();
  // A byte-swapped mark is exactly what a foreign-endian writer leaves.
  std::swap(bytes[12], bytes[15]);
  std::swap(bytes[13], bytes[14]);
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is),
               core::SnapshotByteOrderError);
}

TEST(SnapshotStore, LoadRejectsDimDriftTyped) {
  std::istringstream is(serialized_sample_store(), std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is, /*expected_dim=*/5),
               core::SnapshotDimError);
}

TEST(SnapshotStore, LoadRejectsTruncationAtEveryLayerTyped) {
  const std::string bytes = serialized_sample_store();
  // Cut inside the magic, the header, the float block, the flags/name
  // region, and one byte short of complete: all the same typed error.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{20}, std::size_t{39}, std::size_t{48},
        bytes.size() - 10, bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    std::istringstream is(bytes.substr(0, keep), std::ios::binary);
    EXPECT_THROW((void)core::EmbeddingStore::load(is),
                 core::SnapshotTruncatedError)
        << "prefix of " << keep << " bytes";
  }
}

TEST(SnapshotStore, LoadRejectsTrailingBytesTyped) {
  std::istringstream is(serialized_sample_store() + "x", std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is),
               core::SnapshotTruncatedError);
}

// ---- The optional QNT8 quantized-tier section ----------------------------
// Layout for the 3-row dim-4 sample: tag (4) + per-row f32 scales (12) +
// int8 row block (12) = 28 trailing bytes after the name table.

constexpr std::size_t kSampleQuantSectionSize = 4 + 3 * 4 + 3 * 4;

TEST(SnapshotStore, QuantSectionRoundTripsBitForBit) {
  const core::EmbeddingStore original = sample_store();
  const std::string bytes = serialized_sample_store();
  ASSERT_GE(bytes.size(), kSampleQuantSectionSize);
  const std::size_t tag_at = bytes.size() - kSampleQuantSectionSize;
  ASSERT_EQ(bytes.substr(tag_at, 4), "QNT8");
  std::istringstream is(bytes, std::ios::binary);
  const core::EmbeddingStore loaded = core::EmbeddingStore::load(is, 4);
  for (std::size_t i = 0; i < original.size(); ++i) {
    const core::QuantRowView want = original.quant_view(i);
    const core::QuantRowView got = loaded.quant_view(i);
    EXPECT_EQ(got.scale, want.scale) << "row " << i;
    EXPECT_EQ(got.qnorm, want.qnorm) << "row " << i;
    EXPECT_EQ(got.enorm, want.enorm) << "row " << i;
    EXPECT_EQ(got.norm, want.norm) << "row " << i;
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(loaded.qrow(i)[k], original.qrow(i)[k])
          << "row " << i << " cell " << k;
    }
    EXPECT_EQ(loaded.norm(i), original.norm(i)) << "row " << i;
  }
}

TEST(SnapshotStore, LegacyFileWithoutQuantSectionLoadsAndRebuildsTier) {
  // A pre-QNT8 shard file is exactly today's bytes minus the trailing
  // section; the tier is deterministic from the float rows, so loading
  // one must produce the identical quantized state.
  const core::EmbeddingStore original = sample_store();
  const std::string bytes = serialized_sample_store();
  const std::string legacy =
      bytes.substr(0, bytes.size() - kSampleQuantSectionSize);
  std::istringstream is(legacy, std::ios::binary);
  const core::EmbeddingStore loaded = core::EmbeddingStore::load(is, 4);
  expect_rows_equal(loaded, original);
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.quant_view(i).scale, original.quant_view(i).scale);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(loaded.qrow(i)[k], original.qrow(i)[k]);
    }
  }
}

TEST(SnapshotStore, LoadRejectsCorruptQuantSectionTyped) {
  const std::string bytes = serialized_sample_store();
  const std::size_t tag_at = bytes.size() - kSampleQuantSectionSize;
  // A flipped byte in the scales, and one in the int8 block: both
  // disagree with the deterministic rebuild from the (intact) float
  // rows — the poisoned-tier signature.
  for (const std::size_t victim : {tag_at + 5, tag_at + 4 + 12 + 2}) {
    std::string corrupt = bytes;
    corrupt[victim] = static_cast<char>(corrupt[victim] ^ '\x7F');
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW((void)core::EmbeddingStore::load(is),
                 core::SnapshotManifestError)
        << "corrupt byte at " << victim;
  }
}

TEST(SnapshotStore, LoadRejectsForeignTrailingSectionTyped) {
  // Trailing bytes that are not a QNT8 section — a wrong tag, or a tag
  // torn mid-write — are truncation-class damage, not a legacy file.
  const std::string bytes = serialized_sample_store();
  const std::size_t tag_at = bytes.size() - kSampleQuantSectionSize;
  {
    std::string corrupt = bytes;
    corrupt[tag_at] = 'X';
    std::istringstream is(corrupt, std::ios::binary);
    EXPECT_THROW((void)core::EmbeddingStore::load(is),
                 core::SnapshotTruncatedError);
  }
  {
    std::istringstream is(bytes.substr(0, tag_at + 2), std::ios::binary);
    EXPECT_THROW((void)core::EmbeddingStore::load(is),
                 core::SnapshotTruncatedError);
  }
}

TEST(SnapshotStore, LoadRejectsInconsistentHeaderTyped) {
  std::string bytes = serialized_sample_store();
  // Declare live = rows + 1 (header @32): internally inconsistent.
  bytes[32] = 4;
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW((void)core::EmbeddingStore::load(is),
               core::SnapshotManifestError);
}

// ---- ShardedCorpus: snapshot directory (shards + manifest) ---------------

TEST(SnapshotCorpus, SaveRestoreRoundTripsRowsNamesAndTombstones) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const auto embeddings = embed_all(model, entries);

  core::ShardedCorpus original(3);
  for (std::size_t i = 0; i < 6; ++i) {
    (void)original.add(entries[i].name, embeddings[i]);
  }
  original.remove(2);
  const std::string dir = snapshot_dir("corpus_roundtrip");
  original.save(dir, "fp-roundtrip");
  EXPECT_EQ(core::ShardedCorpus::snapshot_fingerprint(dir), "fp-roundtrip");

  core::ShardedCorpus restored(1);
  restored.restore(dir, "fp-roundtrip");
  // The restored corpus adopts the snapshot's shard count and global
  // index order; rows are byte-equal.
  EXPECT_EQ(restored.num_shards(), 3u);
  ASSERT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.live_count(), original.live_count());
  EXPECT_EQ(restored.dim(), original.dim());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.name(i), original.name(i));
    EXPECT_EQ(restored.live(i), original.live(i));
    EXPECT_EQ(restored.shard_of(i), original.shard_of(i));
    const std::span<const float> g = restored.row(i);
    const std::span<const float> w = original.row(i);
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t k = 0; k < w.size(); ++k) EXPECT_EQ(g[k], w[k]);
  }
}

TEST(SnapshotCorpus, RestoredScoringBitIdenticalAcrossShardAndWorkerCounts) {
  // The acceptance criterion: post-restore score_new_rows/top_k/flag
  // equal the never-restarted corpus cell by cell, for every shard
  // count × worker count.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);
  const auto embeddings = embed_all(model, entries);
  const std::size_t resident = entries.size() - 3;

  for (const std::size_t shards : {1u, 2u, 4u}) {
    core::ShardedCorpus original(shards);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      (void)original.add(entries[i].name, embeddings[i]);
    }
    original.remove(1);  // exercise tombstone persistence in scoring
    const std::string dir =
        snapshot_dir("corpus_bitident_" + std::to_string(shards));
    original.save(dir, "fp-bitident");

    const tensor::Matrix expected = original.score_new_rows(resident);
    const std::vector<core::PairScore> expected_top = original.top_k(0, 5);
    const std::vector<core::PairScore> expected_flag = original.flag(-0.5F);
    ASSERT_FALSE(expected_top.empty());
    ASSERT_FALSE(expected_flag.empty());

    for (const std::size_t workers : {1u, 2u, 8u}) {
      core::ScorerOptions options;
      options.num_threads = workers;
      core::ShardedCorpus restored(1, options);
      restored.restore(dir, "fp-bitident");

      const tensor::Matrix scores = restored.score_new_rows(resident);
      ASSERT_EQ(scores.rows(), expected.rows());
      ASSERT_EQ(scores.cols(), expected.cols());
      for (std::size_t r = 0; r < scores.rows(); ++r) {
        for (std::size_t c = 0; c < scores.cols(); ++c) {
          EXPECT_EQ(scores.at(r, c), expected.at(r, c))
              << shards << " shards, " << workers << " workers, cell (" << r
              << ", " << c << ")";
        }
      }
      const std::vector<core::PairScore> top = restored.top_k(0, 5);
      ASSERT_EQ(top.size(), expected_top.size());
      for (std::size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].a, expected_top[i].a);
        EXPECT_EQ(top[i].b, expected_top[i].b);
        EXPECT_EQ(top[i].similarity, expected_top[i].similarity);
      }
      const std::vector<core::PairScore> flagged = restored.flag(-0.5F);
      ASSERT_EQ(flagged.size(), expected_flag.size());
      for (std::size_t i = 0; i < flagged.size(); ++i) {
        EXPECT_EQ(flagged[i].a, expected_flag[i].a);
        EXPECT_EQ(flagged[i].b, expected_flag[i].b);
        EXPECT_EQ(flagged[i].similarity, expected_flag[i].similarity);
      }
    }
  }
}

TEST(SnapshotCorpus, RestoreRejectsWrongFingerprintAndLeavesCorpusAlone) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);

  core::ShardedCorpus original(2);
  for (std::size_t i = 0; i < 4; ++i) {
    (void)original.add(entries[i].name, embeddings[i]);
  }
  const std::string dir = snapshot_dir("corpus_fingerprint");
  original.save(dir, "fp-writer");

  core::ShardedCorpus victim(2);
  (void)victim.add(entries[4].name, embeddings[4]);
  EXPECT_THROW(victim.restore(dir, "fp-other"),
               core::SnapshotFingerprintError);
  // Strong guarantee: the failed restore changed nothing.
  ASSERT_EQ(victim.size(), 1u);
  EXPECT_EQ(victim.name(0), entries[4].name);
  // An empty expected fingerprint skips the check (caller opted out).
  victim.restore(dir, "");
  EXPECT_EQ(victim.size(), 4u);
}

TEST(SnapshotCorpus, RestoreRejectsTamperedManifestTyped) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);
  core::ShardedCorpus original(2);
  for (std::size_t i = 0; i < 4; ++i) {
    (void)original.add(entries[i].name, embeddings[i]);
  }
  const std::string dir = snapshot_dir("corpus_manifest");
  original.save(dir, "fp-manifest");
  const std::string manifest_path =
      (std::filesystem::path(dir) / core::kManifestFileName).string();
  const std::string pristine = slurp(manifest_path);

  const auto expect_restore_error =
      [&](const std::string& mutated, const auto& matcher) {
        spew(manifest_path, mutated);
        core::ShardedCorpus corpus(1);
        matcher(corpus);
        spew(manifest_path, pristine);
      };

  // Wrong magic: not a corpus manifest at all.
  expect_restore_error(
      "not-a-manifest v1\n", [&](core::ShardedCorpus& c) {
        EXPECT_THROW(c.restore(dir, ""), core::SnapshotMagicError);
      });
  // Right magic, future version.
  {
    std::string mutated = pristine;
    mutated.replace(mutated.find(" v1"), 3, " v9");
    expect_restore_error(mutated, [&](core::ShardedCorpus& c) {
      EXPECT_THROW(c.restore(dir, ""), core::SnapshotVersionError);
    });
  }
  // Unknown placement scheme: rows would land in the wrong shards.
  {
    std::string mutated = pristine;
    mutated.replace(mutated.find(core::kPlacementScheme),
                    std::string(core::kPlacementScheme).size(), "crc32-mod");
    expect_restore_error(mutated, [&](core::ShardedCorpus& c) {
      EXPECT_THROW(c.restore(dir, ""), core::SnapshotManifestError);
    });
  }
  // Truncated: the 'end' sentinel is gone.
  expect_restore_error(
      pristine.substr(0, pristine.find("end")),
      [&](core::ShardedCorpus& c) {
        EXPECT_THROW(c.restore(dir, ""), core::SnapshotTruncatedError);
      });

  // Pristine manifest restores fine afterwards.
  core::ShardedCorpus corpus(1);
  corpus.restore(dir, "fp-manifest");
  EXPECT_EQ(corpus.live_count(), 4u);
}

TEST(SnapshotCorpus, RestoreRejectsMissingShardFileTyped) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);
  core::ShardedCorpus original(3);
  for (std::size_t i = 0; i < 6; ++i) {
    (void)original.add(entries[i].name, embeddings[i]);
  }
  const std::string dir = snapshot_dir("corpus_missing_shard");
  original.save(dir, "fp-missing");
  std::filesystem::remove(std::filesystem::path(dir) /
                          core::shard_file_name(1));
  core::ShardedCorpus corpus(1);
  EXPECT_THROW(corpus.restore(dir, "fp-missing"),
               core::SnapshotManifestError);
  EXPECT_EQ(corpus.size(), 0u);  // untouched
}

}  // namespace
}  // namespace gnn4ip

// ---- AuditService / AsyncAuditor: warm restart ---------------------------

namespace gnn4ip::audit {
namespace {

using gnn4ip::small_corpus;
using gnn4ip::snapshot_dir;
using gnn4ip::slurp;
using gnn4ip::spew;

void expect_reports_equal(const std::vector<ScreenReport>& got,
                          const std::vector<ScreenReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].submission.name, want[r].submission.name);
    EXPECT_EQ(got[r].submission.accepted, want[r].submission.accepted);
    EXPECT_EQ(got[r].submission.corpus_index,
              want[r].submission.corpus_index);
    ASSERT_EQ(got[r].verdicts.size(), want[r].verdicts.size()) << "report "
                                                               << r;
    for (std::size_t v = 0; v < want[r].verdicts.size(); ++v) {
      EXPECT_EQ(got[r].verdicts[v].matched, want[r].verdicts[v].matched);
      EXPECT_EQ(got[r].verdicts[v].corpus_index,
                want[r].verdicts[v].corpus_index);
      EXPECT_EQ(got[r].verdicts[v].similarity,
                want[r].verdicts[v].similarity);
      EXPECT_EQ(got[r].verdicts[v].flagged, want[r].verdicts[v].flagged);
    }
    ASSERT_EQ(got[r].best.has_value(), want[r].best.has_value());
    if (want[r].best) {
      EXPECT_EQ(got[r].best->matched, want[r].best->matched);
      EXPECT_EQ(got[r].best->similarity, want[r].best->similarity);
    }
  }
}

TEST(SnapshotAudit, ModelFingerprintIsStableAndWeightSensitive) {
  gnn::Hw2Vec a;
  gnn::Hw2Vec b;
  EXPECT_EQ(gnn::model_fingerprint(a), gnn::model_fingerprint(b));
  EXPECT_EQ(gnn::model_fingerprint(a).size(), 16u);
  gnn::Hw2VecConfig config;
  config.seed = 99;  // different weights, same architecture
  gnn::Hw2Vec c(config);
  EXPECT_NE(gnn::model_fingerprint(a), gnn::model_fingerprint(c));
}

TEST(SnapshotAudit, WarmRestartScreensBitIdenticalToNeverRestarted) {
  // Warm reference: library + part A + part B in one process. Restarted
  // run: screen part A, save, load into a fresh service, screen part B.
  // Part B's reports must match the warm process cell by cell — the
  // restart is invisible.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 9u);
  const std::size_t library = 3;
  const std::size_t split = 6;

  AuditOptions options;
  options.num_shards = 2;
  options.scorer.delta = -2.0F;  // every resident match is a verdict

  AuditService warm(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(warm.add_library(entries[i]).accepted);
  }
  for (std::size_t i = library; i < split; ++i) {
    ASSERT_TRUE(warm.submit(entries[i]));
  }
  (void)warm.screen();
  for (std::size_t i = split; i < entries.size(); ++i) {
    ASSERT_TRUE(warm.submit(entries[i]));
  }
  const std::vector<ScreenReport> warm_part_b = warm.screen();

  AuditService first(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(first.add_library(entries[i]).accepted);
  }
  for (std::size_t i = library; i < split; ++i) {
    ASSERT_TRUE(first.submit(entries[i]));
  }
  (void)first.screen();
  const std::string dir = snapshot_dir("audit_warm_restart");
  first.save_corpus(dir);

  AuditService second(model, options);
  second.load_corpus(dir);
  EXPECT_EQ(second.resident(), first.resident());
  for (std::size_t i = split; i < entries.size(); ++i) {
    ASSERT_TRUE(second.submit(entries[i]));
  }
  const std::vector<ScreenReport> cold_part_b = second.screen();

  expect_reports_equal(cold_part_b, warm_part_b);
  // Post-restart top_k equals the warm process's too.
  const std::vector<Verdict> warm_top = warm.top_k(entries[0].name, 5);
  const std::vector<Verdict> cold_top = second.top_k(entries[0].name, 5);
  ASSERT_EQ(cold_top.size(), warm_top.size());
  for (std::size_t i = 0; i < warm_top.size(); ++i) {
    EXPECT_EQ(cold_top[i].matched, warm_top[i].matched);
    EXPECT_EQ(cold_top[i].corpus_index, warm_top[i].corpus_index);
    EXPECT_EQ(cold_top[i].similarity, warm_top[i].similarity);
  }
}

TEST(SnapshotAudit, LoadRejectsSnapshotFromDifferentModel) {
  gnn::Hw2Vec writer_model;
  const auto entries = small_corpus();
  AuditOptions options;
  AuditService writer(writer_model, options);
  ASSERT_TRUE(writer.add_library(entries[0]).accepted);
  const std::string dir = snapshot_dir("audit_wrong_model");
  writer.save_corpus(dir);

  gnn::Hw2VecConfig config;
  config.seed = 99;
  AuditService reader(gnn::Hw2Vec(config), options);
  ASSERT_TRUE(reader.add_library(entries[1]).accepted);
  EXPECT_THROW(reader.load_corpus(dir), core::SnapshotFingerprintError);
  // Strong guarantee: the reader kept its own corpus.
  EXPECT_EQ(reader.resident(), 1u);
  EXPECT_TRUE(reader.contains(entries[1].name));
}

TEST(SnapshotAudit, WarmRestartPreservesPinsNameIndexAndLruRecency) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);

  AuditOptions options;
  options.num_shards = 2;
  options.max_resident = 4;
  options.scorer.delta = -2.0F;

  // Twin A stays warm; twin B restarts from A's snapshot. Both then see
  // the same eviction pressure — identical victims proves the restored
  // LRU recency equals the warm one.
  AuditService warm(model, options);
  ASSERT_TRUE(warm.add_library(entries[0]).accepted);  // pinned
  for (std::size_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(warm.submit(entries[i]));
    (void)warm.screen();
  }
  ASSERT_EQ(warm.resident(), 4u);

  const std::string dir = snapshot_dir("audit_lru");
  warm.save_corpus(dir);
  AuditService restarted(model, options);
  restarted.load_corpus(dir);

  EXPECT_EQ(restarted.resident(), warm.resident());
  EXPECT_TRUE(restarted.pinned(entries[0].name));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(restarted.contains(entries[i].name),
              warm.contains(entries[i].name))
        << entries[i].name;
    EXPECT_EQ(restarted.index_of(entries[i].name),
              warm.index_of(entries[i].name))
        << entries[i].name;
  }

  // Same pressure, same victims — one submission at a time.
  for (std::size_t i = 6; i < 8; ++i) {
    ASSERT_TRUE(warm.submit(entries[i]));
    (void)warm.screen();
    ASSERT_TRUE(restarted.submit(entries[i]));
    (void)restarted.screen();
    for (std::size_t j = 0; j < entries.size(); ++j) {
      EXPECT_EQ(restarted.contains(entries[j].name),
                warm.contains(entries[j].name))
          << "after submission " << i << ": " << entries[j].name;
    }
  }
  // The pinned library row survived both streams.
  EXPECT_TRUE(warm.contains(entries[0].name));
  EXPECT_TRUE(restarted.contains(entries[0].name));
}

TEST(SnapshotAudit, LoadRejectsTamperedServiceStateTyped) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  AuditService writer(model, options);
  ASSERT_TRUE(writer.add_library(entries[0]).accepted);
  ASSERT_TRUE(writer.add_library(entries[1]).accepted);
  const std::string dir = snapshot_dir("audit_service_tamper");
  writer.save_corpus(dir);
  const std::string service_path =
      (std::filesystem::path(dir) / core::kServiceFileName).string();
  const std::string pristine = slurp(service_path);

  const auto expect_load_error = [&](const std::string& mutated,
                                     const auto& check) {
    spew(service_path, mutated);
    AuditService reader(model, options);
    ASSERT_TRUE(reader.add_library(entries[2]).accepted);
    check(reader);
    // Strong guarantee, every time: the reader kept its own state.
    EXPECT_EQ(reader.resident(), 1u);
    EXPECT_TRUE(reader.contains(entries[2].name));
    spew(service_path, pristine);
  };

  expect_load_error("bogus v1\nend\n", [&](AuditService& r) {
    EXPECT_THROW(r.load_corpus(dir), core::SnapshotMagicError);
  });
  {
    std::string mutated = pristine;
    mutated.replace(mutated.find(" v1"), 3, " v7");
    expect_load_error(mutated, [&](AuditService& r) {
      EXPECT_THROW(r.load_corpus(dir), core::SnapshotVersionError);
    });
  }
  // Truncated before the declared entries.
  expect_load_error(pristine.substr(0, pristine.find("entry")),
                    [&](AuditService& r) {
                      EXPECT_THROW(r.load_corpus(dir),
                                   core::SnapshotTruncatedError);
                    });
  // A pin naming a non-resident design.
  {
    std::string mutated = pristine;
    mutated.replace(mutated.find("pins 2"), 6, "pins 3");
    mutated.insert(mutated.find("end"), "pin ghost-design\n");
    expect_load_error(mutated, [&](AuditService& r) {
      EXPECT_THROW(r.load_corpus(dir), core::SnapshotManifestError);
    });
  }
  // A name-index entry disagreeing with the corpus row's name.
  {
    std::string mutated = pristine;
    const std::size_t at = mutated.find("entry 0 ");
    ASSERT_NE(at, std::string::npos);
    const std::size_t eol = mutated.find('\n', at);
    mutated.replace(at, eol - at, "entry 0 impostor");
    expect_load_error(mutated, [&](AuditService& r) {
      EXPECT_THROW(r.load_corpus(dir), core::SnapshotManifestError);
    });
  }
  // Missing service file entirely.
  std::filesystem::remove(service_path);
  AuditService reader(model, options);
  EXPECT_THROW(reader.load_corpus(dir), core::SnapshotManifestError);
  spew(service_path, pristine);
  reader.load_corpus(dir);
  EXPECT_EQ(reader.resident(), 2u);
}

TEST(SnapshotAudit, AsyncQuiesceThenSaveCapturesEverySubmission) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 7u);

  AuditOptions options;
  options.num_shards = 2;
  options.scorer.delta = -2.0F;
  AsyncOptions async;
  async.num_consumers = 2;
  AsyncAuditor auditor(model, options, std::move(async));
  ASSERT_TRUE(auditor.service().add_library(entries[0]).accepted);

  std::vector<std::future<ScreenReport>> futures;
  for (std::size_t i = 1; i < 7; ++i) {
    futures.push_back(auditor.submit(entries[i]));
  }
  const std::string dir = snapshot_dir("async_save");
  auditor.save_corpus(dir);  // quiesce-then-save

  // Every submission accepted before the save is in the snapshot.
  AuditService restored(model, options);
  restored.load_corpus(dir);
  EXPECT_EQ(restored.resident(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_TRUE(restored.contains(entries[i].name)) << entries[i].name;
  }
  EXPECT_TRUE(restored.pinned(entries[0].name));
  for (std::future<ScreenReport>& f : futures) {
    EXPECT_TRUE(f.get().submission.accepted);
  }
}

/// In-memory AdmissionLog: records every append and where checkpoints
/// land in the record stream.
class RecordingAdmissionLog final : public AdmissionLog {
 public:
  void append(const AdmissionRecord& record) override {
    records.push_back(record);
  }
  void checkpoint(const std::string& snapshot_dir) override {
    checkpoints.emplace_back(snapshot_dir, records.size());
  }
  std::vector<AdmissionRecord> records;
  std::vector<std::pair<std::string, std::size_t>> checkpoints;
};

TEST(SnapshotAudit, AdmissionLogSeesTicketOrderedAppendsAndCheckpoints) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 5u);

  AuditOptions options;
  options.scorer.delta = -2.0F;
  AuditService service(model, options);
  auto log = std::make_shared<RecordingAdmissionLog>();
  service.set_admission_log(log);

  ASSERT_TRUE(service.add_library(entries[0]).accepted);
  ASSERT_TRUE(service.add_library(entries[1]).accepted);
  for (std::size_t i = 2; i < 5; ++i) ASSERT_TRUE(service.submit(entries[i]));
  (void)service.screen();
  // Re-admitting a resident name records the replacement.
  ASSERT_TRUE(service.add_library(entries[1]).accepted);

  const std::string dir = snapshot_dir("admission_log");
  service.save_corpus(dir);

  ASSERT_EQ(log->records.size(), 6u);
  EXPECT_TRUE(log->records[0].pinned);
  EXPECT_TRUE(log->records[1].pinned);
  EXPECT_FALSE(log->records[2].pinned);
  EXPECT_FALSE(log->records[0].replaced_existing);
  EXPECT_TRUE(log->records.back().replaced_existing);
  EXPECT_EQ(log->records.back().name, entries[1].name);
  for (std::size_t i = 1; i < log->records.size(); ++i) {
    EXPECT_LT(log->records[i - 1].ticket, log->records[i].ticket)
        << "appends must arrive in strictly increasing ticket order";
  }
  // The checkpoint marks exactly how much of the log the snapshot holds.
  ASSERT_EQ(log->checkpoints.size(), 1u);
  EXPECT_EQ(log->checkpoints[0].first, dir);
  EXPECT_EQ(log->checkpoints[0].second, 6u);
}

}  // namespace
}  // namespace gnn4ip::audit
