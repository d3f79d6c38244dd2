// Distributed-corpus tests: the acceptance bar is that distribution is
// *invisible* to results — a DistCorpus fronting {1, 2, 3} shard-server
// processes produces screen()/top_k()/flag() output bit-identical to
// the in-process ShardedCorpus with the same shard count (which
// sharding_test already proves bit-identical to the single-shard
// reference), with and without the int8 prefilter, through mutation
// churn (remove/compact), snapshot round trips in both directions, and
// the full AuditService end to end. Servers here are real ShardServer
// instances on ephemeral loopback ports — the same bytes-over-TCP path
// production takes, minus process isolation.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/audit_service.h"
#include "core/gnn4ip.h"
#include "core/shard_sweep.h"
#include "core/sharded_corpus.h"
#include "core/snapshot_format.h"
#include "data/corpus.h"
#include "dist/dist_corpus.h"
#include "dist/shard_server.h"
#include "gnn/model_io.h"
#include "net/wire_format.h"

namespace gnn4ip {
namespace {

using core::PairScore;
using core::ScreenRow;

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

/// N shard servers on ephemeral loopback ports, each serving on its own
/// thread until the fixture dies.
struct Cluster {
  explicit Cluster(std::size_t count, dist::ShardServerOptions options = {}) {
    options.poll_ms = 20;
    for (std::size_t s = 0; s < count; ++s) {
      servers.push_back(
          std::make_unique<dist::ShardServer>(0, options));
    }
    for (auto& server : servers) {
      threads.emplace_back([&server] { server->serve(); });
    }
  }
  ~Cluster() {
    for (auto& server : servers) server->stop();
    for (std::thread& t : threads) t.join();
  }
  [[nodiscard]] std::vector<dist::Endpoint> endpoints() const {
    std::vector<dist::Endpoint> eps;
    for (const auto& server : servers) {
      eps.push_back({"127.0.0.1", server->port()});
    }
    return eps;
  }

  std::vector<std::unique_ptr<dist::ShardServer>> servers;
  std::vector<std::thread> threads;
};

void expect_rows_equal(const std::vector<ScreenRow>& got,
                       const std::vector<ScreenRow>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].flagged.size(), want[r].flagged.size())
        << label << " row " << r;
    for (std::size_t f = 0; f < want[r].flagged.size(); ++f) {
      EXPECT_EQ(got[r].flagged[f].index, want[r].flagged[f].index)
          << label << " row " << r;
      EXPECT_EQ(got[r].flagged[f].similarity, want[r].flagged[f].similarity)
          << label << " row " << r;
    }
    ASSERT_EQ(got[r].best.has_value(), want[r].best.has_value())
        << label << " row " << r;
    if (want[r].best) {
      EXPECT_EQ(got[r].best->index, want[r].best->index)
          << label << " row " << r;
      EXPECT_EQ(got[r].best->similarity, want[r].best->similarity)
          << label << " row " << r;
    }
    EXPECT_EQ(got[r].scanned, want[r].scanned) << label << " row " << r;
    EXPECT_EQ(got[r].rescored, want[r].rescored) << label << " row " << r;
  }
}

void expect_pairs_equal(const std::vector<PairScore>& got,
                        const std::vector<PairScore>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << label << " #" << i;
    EXPECT_EQ(got[i].b, want[i].b) << label << " #" << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << label << " #" << i;
  }
}

/// A TopK request straight over the wire to one shard server, with a
/// candidate limit the test picks: rows past it are the ones a front end
/// admitted after its snapshot, which the shard must leave out.
std::vector<core::ScreenMatch> raw_top_k(std::uint16_t port,
                                        std::span<const float> probe,
                                        std::uint64_t k, std::uint64_t limit,
                                        bool prefilter) {
  net::Socket sock = net::Socket::connect_to("127.0.0.1", port);
  sock.set_recv_timeout(2000);
  std::vector<std::uint8_t> buf;
  {
    net::FrameBuilder b(buf, net::MsgType::kHello);
    b.put_bytes(net::kWireMagic, sizeof(net::kWireMagic));
    b.put_u32(net::kWireVersion);
    b.put_u32(net::kWireByteOrderMark);
    b.put_u32(static_cast<std::uint32_t>(probe.size()));
    b.put_string("");
    b.finish();
  }
  sock.write_all(buf.data(), buf.size());
  (void)net::expect_frame(sock, net::MsgType::kHelloAck);
  buf.clear();
  {
    net::FrameBuilder b(buf, net::MsgType::kTopK);
    b.put_u32(static_cast<std::uint32_t>(probe.size()));
    b.put_u64(k);
    b.put_u64(limit);
    b.put_u64(std::numeric_limits<std::uint64_t>::max());  // exclude none
    b.put_u8(prefilter ? 1 : 0);
    b.put_bytes(probe.data(), probe.size() * sizeof(float));
    b.finish();
  }
  sock.write_all(buf.data(), buf.size());
  const net::Frame frame = net::expect_frame(sock, net::MsgType::kTopKResult);
  net::FrameCursor cur(frame.payload);
  std::vector<core::ScreenMatch> result(cur.get_u32("match count"));
  for (core::ScreenMatch& m : result) {
    m.index = static_cast<std::size_t>(cur.get_u64("match local"));
    m.similarity = cur.get_f32("match similarity");
  }
  cur.done("TopKResult");
  return result;
}

std::string snapshot_dir(const std::string& leaf) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gnn4ip_dist_test" / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(DistCorpus, ParseEndpointsAcceptsListsRejectsGarbage) {
  const auto eps = dist::parse_endpoints("127.0.0.1:9001,localhost:80");
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[0].host, "127.0.0.1");
  EXPECT_EQ(eps[0].port, 9001);
  EXPECT_EQ(eps[1].host, "localhost");
  EXPECT_EQ(eps[1].port, 80);
  EXPECT_THROW((void)dist::parse_endpoints(""), net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints("hostonly"),
               net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints("host:"),
               net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints(":80"), net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints("host:0"),
               net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints("host:70000"),
               net::WireConnectionError);
  EXPECT_THROW((void)dist::parse_endpoints("host:12x"),
               net::WireConnectionError);
}

TEST(DistCorpus, ConnectRefusesDeadAndNonEmptyServers) {
  EXPECT_THROW((void)dist::DistCorpus::connect({{"127.0.0.1", 1}}, ""),
               net::WireConnectionError);

  Cluster cluster(1);
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);
  auto first = dist::DistCorpus::connect(cluster.endpoints(), "fp");
  ASSERT_EQ(first->add(entries[0].name, embeddings[0]), 0u);
  // Hang up so the single-front-end server can service the next
  // connection; the buffered admission flushes on the way out.
  first.reset();
  // A second fresh corpus must refuse the now-populated server...
  EXPECT_THROW((void)dist::DistCorpus::connect(cluster.endpoints(), "fp"),
               net::WireProtocolError);
  // ...and a fingerprint disagreement is its own typed refusal.
  EXPECT_THROW((void)dist::DistCorpus::connect(cluster.endpoints(), "other",
                                               {}, 0, true),
               net::WireFingerprintError);
}

TEST(DistCorpus, MirrorsIndexSpaceAndPlacement) {
  Cluster cluster(3);
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const auto embeddings = embed_all(model, entries);

  auto corpus = dist::DistCorpus::connect(cluster.endpoints(), "fp");
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(corpus->add(entries[i].name, embeddings[i]), i);
  }
  EXPECT_EQ(corpus->size(), 6u);
  EXPECT_EQ(corpus->live_count(), 6u);
  EXPECT_EQ(corpus->num_shards(), 3u);
  std::size_t shard_total = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    shard_total += corpus->shard_live_count(s);
  }
  EXPECT_EQ(shard_total, 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(corpus->name(i), entries[i].name);
    EXPECT_EQ(corpus->shard_of(i),
              core::ShardedCorpus::placement(entries[i].name, 3));
    EXPECT_TRUE(corpus->live(i));
  }
  corpus->remove(1);
  EXPECT_FALSE(corpus->live(1));
  EXPECT_EQ(corpus->live_count(), 5u);
}

TEST(DistCorpus, ScreenTopKFlagBitIdenticalToInProcess) {
  // The tentpole grid: {1, 2, 3} shard servers × prefilter {off, on},
  // verdicts compared cell by cell against the in-process ShardedCorpus
  // with the same shard count — including through a tombstone.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);
  const auto embeddings = embed_all(model, entries);
  const std::size_t resident = entries.size() - 3;

  for (const std::size_t shards : {1u, 2u, 3u}) {
    for (const bool prefilter : {false, true}) {
      core::ScorerOptions options;
      options.int8_prefilter = prefilter;
      const std::string label = std::to_string(shards) + " shards, prefilter " +
                                (prefilter ? "on" : "off");

      core::ShardedCorpus reference(shards, options);
      Cluster cluster(shards);
      auto corpus =
          dist::DistCorpus::connect(cluster.endpoints(), "fp", options);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        ASSERT_EQ(corpus->add(entries[i].name, embeddings[i]),
                  reference.add(entries[i].name, embeddings[i]));
      }
      reference.remove(1);
      corpus->remove(1);

      expect_rows_equal(corpus->screen_new_rows(resident, -0.25F),
                        reference.screen_new_rows(resident, -0.25F), label);
      expect_pairs_equal(corpus->top_k(0, 5), reference.top_k(0, 5), label);
      expect_pairs_equal(corpus->flag(-0.5F), reference.flag(-0.5F), label);
      EXPECT_EQ(corpus->score(0, 2), reference.score(0, 2)) << label;

      // Compact churns every local index; the renumbering and every
      // post-compact result must still agree.
      EXPECT_EQ(corpus->compact(), reference.compact())
          << label << " (compact mapping)";
      expect_rows_equal(corpus->screen_new_rows(resident - 1, -0.25F),
                        reference.screen_new_rows(resident - 1, -0.25F),
                        label + " (post-compact)");
      expect_pairs_equal(corpus->flag(-0.5F), reference.flag(-0.5F),
                         label + " (post-compact)");

      // More top_k inputs: each design under two more names with its
      // embedding (exact ties across shards), tombstones inside the
      // candidate prefix, every live query with k = 1 up to past the
      // live candidates, then a query alone in its shard.
      for (std::size_t copy = 1; copy <= 2; ++copy) {
        for (std::size_t i = 0; i < entries.size(); ++i) {
          const std::string name = entries[i].name + "@" + std::to_string(copy);
          ASSERT_EQ(corpus->add(name, embeddings[i]),
                    reference.add(name, embeddings[i]));
        }
      }
      for (const std::size_t dead : {2UL, 7UL, 12UL}) {
        corpus->remove(dead);
        reference.remove(dead);
      }
      const auto expect_top_k = [&](std::size_t q, const std::string& what) {
        for (const std::size_t k :
             {1UL, 2UL, 3UL, reference.live_count() + 2}) {
          expect_pairs_equal(corpus->top_k(q, k), reference.top_k(q, k),
                             label + what + " q=" + std::to_string(q) +
                                 " k=" + std::to_string(k));
        }
      };
      for (std::size_t q = 0; q < reference.size(); ++q) {
        if (reference.live(q)) expect_top_k(q, " (ties)");
      }
      if (shards > 1) {
        for (std::size_t j = 1; j < reference.size(); ++j) {
          if (reference.live(j) &&
              reference.shard_of(j) == reference.shard_of(0)) {
            corpus->remove(j);
            reference.remove(j);
          }
        }
        expect_top_k(0, " (alone in its shard)");
      }

      // Rows past the candidate limit are out of the ranking: shard 0's
      // store is the same on the server and in process, so its prefix
      // ranks like the in-process per-store top_k over that prefix.
      corpus.reset();  // hang up: the server takes one front end at a time
      const core::EmbeddingStore& store = reference.shard(0);
      for (const std::size_t limit : {store.size(), store.size() - 2}) {
        for (const std::uint64_t k : {1UL, 3UL, 100UL}) {
          const std::vector<core::ScreenMatch> want =
              core::store_top_k(store, limit, core::EmbeddingStore::kNoIndex,
                                store, 0, k, /*prefilter=*/false,
                                core::kernel_ops(core::KernelBackend::kScalar));
          const std::vector<core::ScreenMatch> got =
              raw_top_k(cluster.servers[0]->port(), store.row(0), k, limit,
                        prefilter);
          ASSERT_EQ(got.size(), want.size()) << label << " limit " << limit;
          for (std::size_t r = 0; r < want.size(); ++r) {
            EXPECT_EQ(got[r].index, want[r].index)
                << label << " limit " << limit;
            EXPECT_EQ(got[r].similarity, want[r].similarity)
                << label << " limit " << limit;
          }
        }
      }
    }
  }
}

TEST(DistCorpus, HolesAndReclaimMatchInProcessThroughChurn) {
  // Evict/compact churn on {1, 2, 3} servers that leaves holes and
  // crosses the 1/8 reclaim: the mirror and every server retire alike,
  // so each compact() mapping, screen (tallies included), top_k, flag and
  // snapshot byte equals the in-process corpus with the same shard count.
  // Then a new front end restores that snapshot onto the servers, which
  // still hold holes: it must re-push, not adopt.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);
  const auto file_bytes = [](const std::filesystem::path& path) {
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
  };
  for (const std::size_t shards : {1u, 2u, 3u}) {
    const std::string label = std::to_string(shards) + " servers";
    core::ScorerOptions options;
    options.int8_prefilter = true;
    core::ShardedCorpus reference(shards, options);
    Cluster cluster(shards);
    auto corpus = dist::DistCorpus::connect(cluster.endpoints(), "fp", options);
    std::size_t admitted = 0;
    const auto admit = [&] {
      const std::size_t e = admitted % entries.size();
      const std::string name =
          entries[e].name + "#" + std::to_string(admitted++);
      ASSERT_EQ(corpus->add(name, embeddings[e]),
                reference.add(name, embeddings[e]));
    };
    std::size_t cursor = 3;
    const auto evict = [&] {
      for (std::size_t tries = 0; tries < reference.size(); ++tries) {
        cursor = (cursor + 7) % reference.size();
        if (!reference.live(cursor)) continue;
        corpus->remove(cursor);
        reference.remove(cursor);
        return;
      }
    };
    for (std::size_t i = 0; i < 36; ++i) admit();
    bool kept_holes = false;
    bool reclaimed = false;
    for (std::size_t round = 0; round < 16; ++round) {
      const std::string at = label + " round " + std::to_string(round);
      std::vector<std::size_t> holes_before(shards);
      for (std::size_t s = 0; s < shards; ++s) {
        holes_before[s] = reference.shard(s).hole_count();
      }
      const std::size_t evictions = round % 5 == 4 ? 8 : 1;
      for (std::size_t e = 0; e < evictions; ++e) evict();
      admit();
      EXPECT_EQ(corpus->compact(), reference.compact()) << at;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t holes = reference.shard(s).hole_count();
        kept_holes = kept_holes || holes > 0;
        reclaimed = reclaimed || (holes_before[s] > 0 && holes == 0);
        EXPECT_EQ(corpus->shard_live_count(s), reference.shard_live_count(s))
            << at;
      }
      admit();
      admit();
      evict();
      const std::size_t first_new = reference.size() - 3;
      expect_rows_equal(corpus->screen_new_rows(first_new, 0.5F),
                        reference.screen_new_rows(first_new, 0.5F), at);
      for (std::size_t q = 0; q < reference.size(); q += 5) {
        if (!reference.live(q)) continue;
        expect_pairs_equal(corpus->top_k(q, 3), reference.top_k(q, 3),
                           at + " q=" + std::to_string(q));
      }
      expect_pairs_equal(corpus->flag(0.5F), reference.flag(0.5F), at);
    }
    EXPECT_TRUE(kept_holes) << label;
    EXPECT_TRUE(reclaimed) << label;

    // Leave holes on the servers, then snapshot both ways and diff.
    evict();
    admit();
    EXPECT_EQ(corpus->compact(), reference.compact()) << label;
    evict();
    std::size_t holes = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      holes += reference.shard(s).hole_count();
    }
    ASSERT_GT(holes, 0u) << label;
    const std::string dist_dir = snapshot_dir("churn_dist");
    const std::string local_dir = snapshot_dir("churn_local");
    corpus->save(dist_dir, "fp");
    reference.save(local_dir, "fp");
    EXPECT_EQ(file_bytes(std::filesystem::path(dist_dir) /
                         core::kManifestFileName),
              file_bytes(std::filesystem::path(local_dir) /
                         core::kManifestFileName))
        << label;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::string file = core::shard_file_name(s);
      EXPECT_EQ(file_bytes(std::filesystem::path(dist_dir) / file),
                file_bytes(std::filesystem::path(local_dir) / file))
          << label << " shard " << s;
    }
    corpus.reset();
    auto raw = dist::DistCorpus::connect(cluster.endpoints(), "fp", options, 0,
                                         /*allow_resident=*/true);
    auto restored = raw->restored(dist_dir, "fp");
    ASSERT_EQ(restored->size(), reference.size()) << label;
    expect_pairs_equal(restored->flag(0.5F), reference.flag(0.5F),
                       label + " (restored)");
    expect_rows_equal(restored->screen_new_rows(reference.size() - 3, 0.5F),
                      reference.screen_new_rows(reference.size() - 3, 0.5F),
                      label + " (restored)");
  }
}

TEST(DistCorpus, SnapshotRoundTripsBothDirections) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const auto embeddings = embed_all(model, entries);

  // Write from the distributed corpus (each server writes its own shard
  // file, the front end writes the manifest)...
  const std::string dir = snapshot_dir("dist_to_inproc");
  {
    Cluster cluster(2);
    auto corpus = dist::DistCorpus::connect(cluster.endpoints(), "fp");
    for (std::size_t i = 0; i < 6; ++i) {
      corpus->add(entries[i].name, embeddings[i]);
    }
    corpus->remove(2);  // tombstones must survive the trip
    corpus->save(dir, "fp");
  }
  // ...restore in-process and compare verdicts against a straight build.
  core::ShardedCorpus restored(2);
  restored.restore(dir, "fp");
  core::ShardedCorpus straight(2);
  for (std::size_t i = 0; i < 6; ++i) {
    straight.add(entries[i].name, embeddings[i]);
  }
  straight.remove(2);
  EXPECT_EQ(restored.size(), straight.size());
  EXPECT_EQ(restored.live_count(), straight.live_count());
  expect_pairs_equal(restored.flag(-0.5F), straight.flag(-0.5F),
                     "dist->inproc");

  // And back: an in-process snapshot restored into a distributed corpus
  // (cold servers — the reset-and-push path).
  const std::string dir2 = snapshot_dir("inproc_to_dist");
  straight.save(dir2, "fp");
  Cluster cluster(2);
  auto fresh = dist::DistCorpus::connect(cluster.endpoints(), "fp");
  auto adopted = fresh->restored(dir2, "fp");
  EXPECT_EQ(adopted->size(), straight.size());
  EXPECT_EQ(adopted->live_count(), straight.live_count());
  EXPECT_FALSE(adopted->live(2));
  expect_pairs_equal(adopted->flag(-0.5F), straight.flag(-0.5F),
                     "inproc->dist");
  expect_pairs_equal(adopted->top_k(0, 4), straight.top_k(0, 4),
                     "inproc->dist top_k");
}

TEST(DistCorpus, UnreconciledServersRefuseUseUntilRestore) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);

  // Populate one server, snapshot, then reconnect with allow_resident:
  // every operation must refuse until restored() reconciles.
  const std::string dir = snapshot_dir("unreconciled");
  Cluster cluster(1);
  {
    auto corpus = dist::DistCorpus::connect(cluster.endpoints(), "fp");
    for (std::size_t i = 0; i < 4; ++i) {
      corpus->add(entries[i].name, embeddings[i]);
    }
    corpus->save(dir, "fp");
  }
  auto raw = dist::DistCorpus::connect(cluster.endpoints(), "fp", {}, 0,
                                       /*allow_resident=*/true);
  EXPECT_THROW((void)raw->add("x", embeddings[0]), net::WireProtocolError);
  EXPECT_THROW((void)raw->flag(-0.5F), net::WireProtocolError);
  EXPECT_THROW(raw->save(snapshot_dir("refused"), "fp"),
               net::WireProtocolError);
  // restored() reconciles — here by adopting the resident rows without
  // a push (the tallies match the snapshot).
  auto adopted = raw->restored(dir, "fp");
  EXPECT_EQ(adopted->size(), 4u);
  core::ShardedCorpus straight(1);
  for (std::size_t i = 0; i < 4; ++i) {
    straight.add(entries[i].name, embeddings[i]);
  }
  expect_pairs_equal(adopted->flag(-0.5F), straight.flag(-0.5F), "adopted");
}

TEST(DistAudit, ScreenReportsBitIdenticalToInProcess) {
  // End to end through AuditService: the full ScreenReport stream and
  // post-screen top_k from a service backed by remote shard servers
  // equal the in-process service's, for the same shard count.
  gnn::Hw2Vec model;
  const std::string fingerprint = gnn::model_fingerprint(model);
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 8u);
  const std::size_t library = 5;

  audit::AuditOptions options;
  options.num_shards = 2;
  options.scorer.delta = -2.0F;  // every resident match is a verdict

  audit::AuditService reference(model, options);
  Cluster cluster(2);
  audit::AuditService distributed(
      model, options,
      dist::DistCorpus::connect(cluster.endpoints(), fingerprint,
                                options.scorer));

  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(reference.add_library(entries[i]).accepted);
    ASSERT_TRUE(distributed.add_library(entries[i]).accepted);
  }
  for (std::size_t i = library; i < entries.size(); ++i) {
    ASSERT_TRUE(reference.submit(entries[i]));
    ASSERT_TRUE(distributed.submit(entries[i]));
  }
  const std::vector<audit::ScreenReport> want = reference.screen();
  const std::vector<audit::ScreenReport> got = distributed.screen();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].submission.name, want[r].submission.name);
    EXPECT_EQ(got[r].submission.corpus_index, want[r].submission.corpus_index);
    ASSERT_EQ(got[r].verdicts.size(), want[r].verdicts.size());
    for (std::size_t v = 0; v < want[r].verdicts.size(); ++v) {
      EXPECT_EQ(got[r].verdicts[v].matched, want[r].verdicts[v].matched);
      EXPECT_EQ(got[r].verdicts[v].corpus_index,
                want[r].verdicts[v].corpus_index);
      EXPECT_EQ(got[r].verdicts[v].similarity,
                want[r].verdicts[v].similarity);
    }
    ASSERT_EQ(got[r].best.has_value(), want[r].best.has_value());
    if (want[r].best) {
      EXPECT_EQ(got[r].best->matched, want[r].best->matched);
      EXPECT_EQ(got[r].best->similarity, want[r].best->similarity);
    }
  }
  const auto want_top = reference.top_k(entries[0].name, 4);
  const auto got_top = distributed.top_k(entries[0].name, 4);
  ASSERT_EQ(got_top.size(), want_top.size());
  for (std::size_t i = 0; i < want_top.size(); ++i) {
    EXPECT_EQ(got_top[i].matched, want_top[i].matched);
    EXPECT_EQ(got_top[i].similarity, want_top[i].similarity);
  }
}

TEST(DistCorpus, ServerDeathMidConversationIsTypedNotAHang) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  const auto embeddings = embed_all(model, entries);

  auto cluster = std::make_unique<Cluster>(2);
  auto corpus = dist::DistCorpus::connect(cluster->endpoints(), "fp");
  for (std::size_t i = 0; i < 4; ++i) {
    corpus->add(entries[i].name, embeddings[i]);
  }
  ASSERT_FALSE(corpus->flag(-0.5F).empty());
  // Kill both servers (stop + connection teardown), then screen: the
  // dead cluster must surface as a typed WireError, never a hang.
  cluster.reset();
  EXPECT_THROW((void)corpus->flag(-0.5F), net::WireError);
}

}  // namespace
}  // namespace gnn4ip
