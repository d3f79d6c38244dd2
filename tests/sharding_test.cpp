// ShardedCorpus tests: the acceptance bar for the sharded resident
// corpus is that sharding is *invisible* to results — screen()/top_k()/
// flag() are bit-identical across {1, 2, 4} shards × {1, 2, 8} workers
// and to the single-shard PairwiseScorer reference — while placement,
// per-shard eviction budgets, and per-shard compaction behave as
// documented.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "audit/audit_service.h"
#include "core/gnn4ip.h"
#include "core/pairwise_scorer.h"
#include "core/sharded_corpus.h"
#include "core/snapshot_format.h"
#include "data/corpus.h"
#include "util/contract.h"

namespace gnn4ip::core {
namespace {

constexpr std::size_t kNoIndex = ShardedCorpus::kNoIndex;

std::vector<train::GraphEntry> small_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter", "pwm"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

/// One embedding per entry, shared by every scorer/corpus under test so
/// cross-configuration comparisons are exact.
std::vector<tensor::Matrix> embed_all(gnn::Hw2Vec& model,
                                      std::span<const train::GraphEntry> e) {
  std::vector<tensor::Matrix> out;
  out.reserve(e.size());
  for (const train::GraphEntry& entry : e) {
    out.push_back(model.embed_inference(entry.tensors));
  }
  return out;
}

TEST(ShardedCorpus, PlacementIsDeterministicAndInRange) {
  // FNV-1a of the name: a pure function — same name, same shard, on any
  // instance, in any insertion order.
  const std::vector<std::string> names = {"crc8", "uart_tx", "fifo_ctrl",
                                          "adder#1", "adder#2", ""};
  for (const std::string& name : names) {
    EXPECT_EQ(ShardedCorpus::placement(name, 1), 0u);
    for (std::size_t shards : {2u, 4u, 7u}) {
      const std::size_t s = ShardedCorpus::placement(name, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardedCorpus::placement(name, shards));
    }
  }
  EXPECT_THROW((void)ShardedCorpus::placement("x", 0),
               util::ContractViolation);
}

TEST(ShardedCorpus, AddRoutesByNameHashAndKeepsGlobalIndexSpace) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 4u);
  const auto embeddings = embed_all(model, entries);

  ShardedCorpus corpus(4);
  for (std::size_t i = 0; i < 4; ++i) {
    // Global ids are insertion-ordered regardless of shard placement.
    EXPECT_EQ(corpus.add(entries[i].name, embeddings[i]), i);
  }
  EXPECT_EQ(corpus.size(), 4u);
  EXPECT_EQ(corpus.live_count(), 4u);
  std::size_t shard_total = 0;
  for (std::size_t s = 0; s < corpus.num_shards(); ++s) {
    shard_total += corpus.shard(s).size();
  }
  EXPECT_EQ(shard_total, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(corpus.name(i), entries[i].name);
    EXPECT_EQ(corpus.shard_of(i),
              ShardedCorpus::placement(entries[i].name, 4));
    // The row behind the global id is the admitted embedding, bit-equal.
    const std::span<const float> row = corpus.row(i);
    const std::span<const float> expected = embeddings[i].data();
    ASSERT_EQ(row.size(), expected.size());
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k], expected[k]);
    }
  }
}

TEST(ShardedCorpus, ScoreNewRowsBitIdenticalAcrossShardAndWorkerCounts) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);
  const auto embeddings = embed_all(model, entries);
  const std::size_t resident = entries.size() - 3;

  // Reference: the single-shard PairwiseScorer path.
  PairwiseScorer reference;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    reference.add(entries[i].name, embeddings[i]);
  }
  const tensor::Matrix expected = reference.score_new_rows(resident);

  for (std::size_t shards : {1u, 2u, 4u}) {
    for (std::size_t workers : {1u, 2u, 8u}) {
      ScorerOptions options;
      options.num_threads = workers;
      ShardedCorpus corpus(shards, options);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        corpus.add(entries[i].name, embeddings[i]);
      }
      const tensor::Matrix scores = corpus.score_new_rows(resident);
      ASSERT_EQ(scores.rows(), expected.rows());
      ASSERT_EQ(scores.cols(), expected.cols());
      for (std::size_t r = 0; r < scores.rows(); ++r) {
        for (std::size_t c = 0; c < scores.cols(); ++c) {
          EXPECT_EQ(scores.at(r, c), expected.at(r, c))
              << shards << " shards, " << workers << " workers, cell (" << r
              << ", " << c << ")";
        }
      }
      // Spot-check the pairwise accessor against the reference too.
      EXPECT_EQ(corpus.score(0, resident), reference.score(0, resident));
    }
  }
}

TEST(ShardedCorpus, TopKAndFlagBitIdenticalAcrossShardAndWorkerCounts) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);

  PairwiseScorer reference;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    reference.add(entries[i].name, embeddings[i]);
  }
  // Remove one row so live-row filtering is exercised by the merge.
  reference.remove(1);
  const std::vector<PairScore> expected_top = reference.top_k(0, 5);
  const std::vector<PairScore> expected_flagged = reference.flag(-0.5F);
  ASSERT_FALSE(expected_top.empty());
  ASSERT_FALSE(expected_flagged.empty());

  for (std::size_t shards : {1u, 2u, 4u}) {
    for (std::size_t workers : {1u, 2u, 8u}) {
      ScorerOptions options;
      options.num_threads = workers;
      ShardedCorpus corpus(shards, options);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        corpus.add(entries[i].name, embeddings[i]);
      }
      corpus.remove(1);

      const std::vector<PairScore> top = corpus.top_k(0, 5);
      ASSERT_EQ(top.size(), expected_top.size());
      for (std::size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].a, expected_top[i].a);
        EXPECT_EQ(top[i].b, expected_top[i].b);
        EXPECT_EQ(top[i].similarity, expected_top[i].similarity);
      }

      const std::vector<PairScore> flagged = corpus.flag(-0.5F);
      ASSERT_EQ(flagged.size(), expected_flagged.size());
      for (std::size_t i = 0; i < flagged.size(); ++i) {
        EXPECT_EQ(flagged[i].a, expected_flagged[i].a);
        EXPECT_EQ(flagged[i].b, expected_flagged[i].b);
        EXPECT_EQ(flagged[i].similarity, expected_flagged[i].similarity);
      }
    }
  }

  // More top_k and flag inputs, with the int8 prefilter off and on:
  // every design resident under four names with one embedding (exact
  // ties straddle the k-th place and the shards), k = 1 up to k ≥ live
  // candidates, every live row as the query, tombstones inside the
  // candidate prefix, δ from 0.9 down to −2 (every pair flagged), and —
  // after the query's shard mates are removed — a query alone in its
  // shard.
  const auto expect_top_k = [&](const ShardedCorpus& corpus,
                                const PairwiseScorer& ref, std::size_t q,
                                const std::string& label) {
    for (const std::size_t k : {1UL, 3UL, 4UL, 5UL, ref.live_count() - 1,
                                ref.live_count() + 3}) {
      const std::vector<PairScore> want = ref.top_k(q, k);
      const std::vector<PairScore> got = corpus.top_k(q, k);
      ASSERT_EQ(got.size(), want.size()) << label << " q=" << q << " k=" << k;
      for (std::size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(got[r].b, want[r].b) << label << " q=" << q << " k=" << k;
        EXPECT_EQ(got[r].similarity, want[r].similarity)
            << label << " q=" << q << " k=" << k;
      }
    }
  };
  for (const bool prefilter : {false, true}) {
    for (const std::size_t shards : {1u, 2u, 4u}) {
      const std::string label = std::to_string(shards) + " shards, prefilter " +
                                (prefilter ? "on" : "off");
      ScorerOptions options;
      options.int8_prefilter = prefilter;
      ShardedCorpus corpus(shards, options);
      PairwiseScorer ref;
      for (std::size_t owner = 0; owner < 4; ++owner) {
        for (std::size_t i = 0; i < entries.size(); ++i) {
          const std::string name =
              entries[i].name + "@owner" + std::to_string(owner);
          ASSERT_EQ(corpus.add(name, embeddings[i]),
                    ref.add(name, embeddings[i]));
        }
      }
      for (const std::size_t dead : {1UL, 6UL, 13UL}) {
        corpus.remove(dead);
        ref.remove(dead);
      }
      for (std::size_t q = 0; q < ref.size(); ++q) {
        if (ref.live(q)) expect_top_k(corpus, ref, q, label);
      }
      for (const float delta : {0.5F, 0.9F, -2.0F}) {
        const std::vector<PairScore> want = ref.flag(delta);
        const std::vector<PairScore> got = corpus.flag(delta);
        ASSERT_EQ(got.size(), want.size()) << label << " delta " << delta;
        for (std::size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(got[r].a, want[r].a) << label << " delta " << delta;
          EXPECT_EQ(got[r].b, want[r].b) << label << " delta " << delta;
          EXPECT_EQ(got[r].similarity, want[r].similarity)
              << label << " delta " << delta;
        }
      }
      if (shards == 1) continue;
      for (std::size_t j = 1; j < ref.size(); ++j) {
        if (ref.live(j) && corpus.shard_of(j) == corpus.shard_of(0)) {
          corpus.remove(j);
          ref.remove(j);
        }
      }
      ASSERT_EQ(corpus.shard_live_count(corpus.shard_of(0)), 1u) << label;
      expect_top_k(corpus, ref, 0, label + ", query alone in its shard");
    }
  }
}

TEST(ShardedCorpus, CompactRenumbersDenselyInInsertionOrderPerShard) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const auto embeddings = embed_all(model, entries);

  ShardedCorpus corpus(3);
  for (std::size_t i = 0; i < 6; ++i) {
    corpus.add(entries[i].name, embeddings[i]);
  }
  corpus.remove(0);
  corpus.remove(3);
  EXPECT_EQ(corpus.live_count(), 4u);

  const std::vector<std::size_t> mapping = corpus.compact();
  ASSERT_EQ(mapping.size(), 6u);
  EXPECT_EQ(mapping[0], kNoIndex);
  EXPECT_EQ(mapping[3], kNoIndex);
  // Survivors renumber densely in insertion order — the same mapping a
  // single-shard compact() yields, for any shard count.
  EXPECT_EQ(mapping[1], 0u);
  EXPECT_EQ(mapping[2], 1u);
  EXPECT_EQ(mapping[4], 2u);
  EXPECT_EQ(mapping[5], 3u);
  EXPECT_EQ(corpus.size(), 4u);
  EXPECT_EQ(corpus.live_count(), 4u);
  // Names, rows, and shard placement survive the per-shard remap.
  const std::size_t old_ids[] = {1, 2, 4, 5};
  for (std::size_t n = 0; n < 4; ++n) {
    const std::size_t old_id = old_ids[n];
    EXPECT_EQ(corpus.name(n), entries[old_id].name);
    EXPECT_EQ(corpus.shard_of(n),
              ShardedCorpus::placement(entries[old_id].name, 3));
    const std::span<const float> row = corpus.row(n);
    const std::span<const float> expected = embeddings[old_id].data();
    ASSERT_EQ(row.size(), expected.size());
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k], expected[k]);
    }
  }
  // And scoring still works against the compacted numbering.
  EXPECT_EQ(corpus.score(0, 1),
            cosine_pair(embeddings[1].data(), embeddings[2].data()));
}

/// Everything a caller can see of `corpus` — names, liveness, placement,
/// score_new_rows, screen_new_rows, top_k and flag — against `ref`, which
/// holds the same rows and compacts eagerly.
void expect_same_as_eager(const ShardedCorpus& corpus,
                          const PairwiseScorer& ref, float delta,
                          const std::string& label) {
  ASSERT_EQ(corpus.size(), ref.size()) << label;
  ASSERT_EQ(corpus.live_count(), ref.live_count()) << label;
  for (std::size_t g = 0; g < ref.size(); ++g) {
    EXPECT_EQ(corpus.name(g), ref.name(g)) << label << " g=" << g;
    EXPECT_EQ(corpus.live(g), ref.live(g)) << label << " g=" << g;
    EXPECT_EQ(corpus.shard_of(g),
              ShardedCorpus::placement(ref.name(g), corpus.num_shards()))
        << label << " g=" << g;
  }
  const std::size_t first_new = ref.size() - 3;
  const tensor::Matrix want = ref.score_new_rows(first_new);
  const tensor::Matrix got = corpus.score_new_rows(first_new);
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t c = 0; c < want.cols(); ++c) {
      EXPECT_EQ(got.at(r, c), want.at(r, c)) << label << " cell " << r << ","
                                             << c;
    }
  }
  // The screen is the exhaustive walk of the same cells: flags ascending,
  // best the first maximum, over live rows admitted before first_new.
  const std::vector<ScreenRow> screened =
      corpus.screen_new_rows(first_new, delta);
  ASSERT_EQ(screened.size(), want.rows()) << label;
  for (std::size_t r = 0; r < want.rows(); ++r) {
    std::vector<ScreenMatch> flags;
    std::optional<ScreenMatch> best;
    std::size_t scanned = 0;
    for (std::size_t c = 0; c < first_new; ++c) {
      if (!ref.live(c)) continue;
      ++scanned;
      const float sim = want.at(r, c);
      if (sim > delta) flags.push_back({c, sim});
      if (!best || sim > best->similarity) best = ScreenMatch{c, sim};
    }
    const ScreenRow& row = screened[r];
    EXPECT_EQ(row.scanned, scanned) << label << " row " << r;
    ASSERT_EQ(row.flagged.size(), flags.size()) << label << " row " << r;
    for (std::size_t f = 0; f < flags.size(); ++f) {
      EXPECT_EQ(row.flagged[f].index, flags[f].index) << label << " row " << r;
      EXPECT_EQ(row.flagged[f].similarity, flags[f].similarity)
          << label << " row " << r;
    }
    ASSERT_EQ(row.best.has_value(), best.has_value()) << label << " row " << r;
    if (best) {
      EXPECT_EQ(row.best->index, best->index) << label << " row " << r;
      EXPECT_EQ(row.best->similarity, best->similarity)
          << label << " row " << r;
    }
  }
  for (std::size_t q = 0; q < ref.size(); ++q) {
    if (!ref.live(q)) continue;
    const std::vector<PairScore> want_top = ref.top_k(q, 4);
    const std::vector<PairScore> got_top = corpus.top_k(q, 4);
    ASSERT_EQ(got_top.size(), want_top.size()) << label << " q=" << q;
    for (std::size_t i = 0; i < want_top.size(); ++i) {
      EXPECT_EQ(got_top[i].b, want_top[i].b) << label << " q=" << q;
      EXPECT_EQ(got_top[i].similarity, want_top[i].similarity)
          << label << " q=" << q;
    }
  }
  const std::vector<PairScore> want_flag = ref.flag(delta);
  const std::vector<PairScore> got_flag = corpus.flag(delta);
  ASSERT_EQ(got_flag.size(), want_flag.size()) << label;
  for (std::size_t i = 0; i < want_flag.size(); ++i) {
    EXPECT_EQ(got_flag[i].a, want_flag[i].a) << label << " #" << i;
    EXPECT_EQ(got_flag[i].b, want_flag[i].b) << label << " #" << i;
    EXPECT_EQ(got_flag[i].similarity, want_flag[i].similarity)
        << label << " #" << i;
  }
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(ShardedCorpus, HolesAndReclaimMatchEagerCompactionThroughChurn) {
  // Evict/compact churn on {1, 2, 4} shards, prefilter off and on: most
  // compactions leave holes behind, and bursts of evictions push stores
  // past the 1/8 reclaim. After every compact() the corpus must be what
  // an eagerly compacting PairwiseScorer is, and — with holes and pending
  // tombstones — save the files an eagerly compacted twin saves.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "gnn4ip_sharding_test";
  constexpr float kDelta = 0.5F;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const bool prefilter : {false, true}) {
      const std::string label = std::to_string(shards) + " shards, prefilter " +
                                (prefilter ? "on" : "off");
      ScorerOptions options;
      options.int8_prefilter = prefilter;
      ShardedCorpus corpus(shards, options);
      PairwiseScorer ref(options);
      std::size_t admitted = 0;
      const auto admit = [&] {
        const std::size_t e = admitted % entries.size();
        const std::string name =
            entries[e].name + "#" + std::to_string(admitted++);
        ASSERT_EQ(corpus.add(name, embeddings[e]),
                  ref.add(name, embeddings[e]));
      };
      std::size_t cursor = 7;  // a deterministic walk over live rows
      const auto evict = [&] {
        for (std::size_t tries = 0; tries < ref.size(); ++tries) {
          cursor = (cursor + 5) % ref.size();
          if (!ref.live(cursor)) continue;
          corpus.remove(cursor);
          ref.remove(cursor);
          return;
        }
      };
      for (std::size_t i = 0; i < 48; ++i) admit();
      bool kept_holes = false;
      bool reclaimed = false;
      for (std::size_t round = 0; round < 24; ++round) {
        std::vector<std::size_t> holes_before(shards);
        for (std::size_t s = 0; s < shards; ++s) {
          holes_before[s] = corpus.shard(s).hole_count();
        }
        const std::size_t evictions = round % 6 == 5 ? 9 : 1;
        for (std::size_t e = 0; e < evictions; ++e) evict();
        admit();
        const std::vector<std::size_t> mapping = corpus.compact();
        EXPECT_EQ(mapping, ref.compact()) << label << " round " << round;
        for (std::size_t s = 0; s < shards; ++s) {
          const std::size_t holes = corpus.shard(s).hole_count();
          kept_holes = kept_holes || holes > 0;
          reclaimed = reclaimed || (holes_before[s] > 0 && holes == 0);
        }
        // New rows to screen, and a pending tombstone beside the holes.
        admit();
        admit();
        evict();
        const std::string at = label + " round " + std::to_string(round);
        expect_same_as_eager(corpus, ref, kDelta, at);

        // Snapshot bytes: the store with holes writes what a corpus built
        // straight from the eager state writes.
        ShardedCorpus eager(shards, options);
        for (std::size_t g = 0; g < ref.size(); ++g) {
          tensor::Matrix row(1, ref.dim());
          const std::span<const float> values = ref.row(g);
          std::copy(values.begin(), values.end(), row.data().begin());
          (void)eager.add(ref.name(g), row);
        }
        for (std::size_t g = 0; g < ref.size(); ++g) {
          if (!ref.live(g)) eager.remove(g);
        }
        const std::filesystem::path holey_dir = root / "holey";
        const std::filesystem::path eager_dir = root / "eager";
        std::filesystem::remove_all(root);
        corpus.save(holey_dir.string(), "fp");
        eager.save(eager_dir.string(), "fp");
        EXPECT_EQ(file_bytes(holey_dir / kManifestFileName),
                  file_bytes(eager_dir / kManifestFileName))
            << at;
        for (std::size_t s = 0; s < shards; ++s) {
          EXPECT_EQ(file_bytes(holey_dir / shard_file_name(s)),
                    file_bytes(eager_dir / shard_file_name(s)))
              << at << " shard " << s;
        }
        ShardedCorpus restored(1, options);
        restored.restore(holey_dir.string(), "fp");
        expect_same_as_eager(restored, ref, kDelta, at + " (restored)");
      }
      EXPECT_TRUE(kept_holes) << label;
      EXPECT_TRUE(reclaimed) << label;
    }
  }
  std::filesystem::remove_all(root);
}

TEST(ShardedCorpus, RejectsMismatchedDimsAndBadIndices) {
  ShardedCorpus corpus(2);
  tensor::Matrix a(1, 4, 0.5F);
  tensor::Matrix b(1, 3, 0.5F);
  (void)corpus.add("a", a);
  EXPECT_THROW((void)corpus.add("b", b), util::ContractViolation);
  EXPECT_THROW((void)corpus.name(7), util::ContractViolation);
  EXPECT_THROW((void)corpus.row(7), util::ContractViolation);
  EXPECT_THROW(corpus.remove(7), util::ContractViolation);
  EXPECT_THROW((void)corpus.shard(5), util::ContractViolation);
  EXPECT_THROW(ShardedCorpus(0), util::ContractViolation);
}

}  // namespace
}  // namespace gnn4ip::core

namespace gnn4ip::audit {
namespace {

std::vector<train::GraphEntry> audit_corpus() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter", "pwm"};
  return make_graph_entries(data::build_rtl_corpus(options));
}

TEST(ShardedAudit, ScreenReportsBitIdenticalAcrossShardAndWorkerCounts) {
  // The end-to-end acceptance bar: the full ScreenReport stream —
  // acceptance, corpus indices, verdict sets, similarities, best
  // matches — is equal for every shard count × worker count.
  gnn::Hw2Vec model;
  const auto entries = audit_corpus();
  ASSERT_GE(entries.size(), 8u);
  const std::size_t library = 5;

  std::vector<std::vector<ScreenReport>> runs;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t workers : {1u, 2u, 8u}) {
      AuditOptions options;
      options.num_shards = shards;
      options.scorer.num_threads = workers;
      options.scorer.delta = -2.0F;  // every resident match is a verdict
      AuditService service(model, options);
      for (std::size_t i = 0; i < library; ++i) {
        ASSERT_TRUE(service.add_library(entries[i]).accepted);
      }
      for (std::size_t i = library; i < entries.size(); ++i) {
        ASSERT_TRUE(service.submit(entries[i]));
      }
      runs.push_back(service.screen());
    }
  }

  const std::vector<ScreenReport>& reference = runs.front();
  ASSERT_EQ(reference.size(), entries.size() - library);
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), reference.size()) << "run " << run;
    for (std::size_t r = 0; r < reference.size(); ++r) {
      const ScreenReport& got = runs[run][r];
      const ScreenReport& want = reference[r];
      EXPECT_EQ(got.submission.name, want.submission.name);
      EXPECT_EQ(got.submission.accepted, want.submission.accepted);
      EXPECT_EQ(got.submission.corpus_index, want.submission.corpus_index);
      ASSERT_EQ(got.verdicts.size(), want.verdicts.size());
      for (std::size_t v = 0; v < want.verdicts.size(); ++v) {
        EXPECT_EQ(got.verdicts[v].matched, want.verdicts[v].matched);
        EXPECT_EQ(got.verdicts[v].corpus_index,
                  want.verdicts[v].corpus_index);
        EXPECT_EQ(got.verdicts[v].similarity, want.verdicts[v].similarity);
        EXPECT_EQ(got.verdicts[v].flagged, want.verdicts[v].flagged);
      }
      ASSERT_EQ(got.best.has_value(), want.best.has_value());
      if (want.best) {
        EXPECT_EQ(got.best->matched, want.best->matched);
        EXPECT_EQ(got.best->similarity, want.best->similarity);
      }
    }
  }
}

TEST(ShardedAudit, TopKBitIdenticalAcrossShardCounts) {
  gnn::Hw2Vec model;
  const auto entries = audit_corpus();
  ASSERT_GE(entries.size(), 6u);

  std::vector<std::vector<Verdict>> runs;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    AuditOptions options;
    options.num_shards = shards;
    options.scorer.delta = -2.0F;
    AuditService service(model, options);
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(service.add_library(entries[i]).accepted);
    }
    runs.push_back(service.top_k(entries[0].name, 4));
  }
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[run][i].matched, runs[0][i].matched);
      EXPECT_EQ(runs[run][i].corpus_index, runs[0][i].corpus_index);
      EXPECT_EQ(runs[run][i].similarity, runs[0][i].similarity);
    }
  }
}

TEST(ShardedAudit, PerShardBudgetEvictsOnlyTheHotShard) {
  gnn::Hw2Vec model;
  const auto entries = audit_corpus();
  ASSERT_GE(entries.size(), 8u);

  AuditOptions options;
  options.num_shards = 2;
  options.shard_budget = 2;
  options.scorer.delta = -2.0F;
  AuditService service(model, options);
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(service.submit(entries[i]));
  }
  (void)service.screen();

  // Every shard ends within budget, and exactly the over-budget shards
  // shrank: total resident = sum of min(placed, budget).
  std::size_t expected_resident = 0;
  std::vector<std::size_t> placed(2, 0);
  for (std::size_t i = 0; i < 8; ++i) {
    ++placed[core::ShardedCorpus::placement(entries[i].name, 2)];
  }
  for (std::size_t s = 0; s < 2; ++s) {
    expected_resident += std::min<std::size_t>(placed[s], 2);
    EXPECT_LE(service.corpus().shard_live_count(s), 2u);
  }
  EXPECT_EQ(service.resident(), expected_resident);
  EXPECT_EQ(service.corpus().shard_budget(), 2u);
}

TEST(ShardedAudit, PinnedEntriesExemptFromShardBudget) {
  gnn::Hw2Vec model;
  const auto entries = audit_corpus();
  ASSERT_GE(entries.size(), 6u);

  AuditOptions options;
  options.num_shards = 1;  // one shard: the budget bites immediately
  options.shard_budget = 1;
  AuditService service(model, options);
  // Three pinned library entries in a shard budgeted for one: the
  // budget can never evict them.
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.add_library(entries[i]).accepted);
  }
  EXPECT_EQ(service.resident(), 3u);

  // A screened (unpinned) submission is evicted straight away.
  ASSERT_TRUE(service.submit(entries[3]));
  const std::vector<ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].submission.accepted);
  EXPECT_EQ(reports[0].submission.corpus_index,
            core::ShardedCorpus::kNoIndex);
  EXPECT_EQ(service.resident(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(service.contains(entries[i].name));
  }
}

TEST(ShardedAudit, EvictionAndResubmissionKeepNameIndexConsistent) {
  // Drive several screen→evict→compact cycles over a sharded corpus and
  // check the service's name index tracks the global remapping.
  gnn::Hw2Vec model;
  const auto entries = audit_corpus();
  ASSERT_GE(entries.size(), 8u);

  AuditOptions options;
  options.num_shards = 4;
  options.max_resident = 3;
  options.scorer.delta = -2.0F;
  AuditService service(model, options);
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(service.submit(entries[i]));
      (void)service.screen();
    }
  }
  EXPECT_EQ(service.resident(), 3u);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t index = service.index_of(entries[i].name);
    if (index == core::ShardedCorpus::kNoIndex) continue;
    EXPECT_EQ(service.name(index), entries[i].name);
    ++checked;
  }
  EXPECT_EQ(checked, 3u);
}

}  // namespace
}  // namespace gnn4ip::audit
