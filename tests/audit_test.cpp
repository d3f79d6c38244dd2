// AuditService tests: screen() parity with the raw
// PairwiseScorer::score_new_rows path (bit-identical across worker
// counts — the facade must never change the arithmetic), Result-style
// per-submission diagnostics, and the eviction story (LRU, pinning,
// capacity bounds, evict-then-resubmit).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "audit/async_auditor.h"
#include "audit/audit_service.h"
#include "core/gnn4ip.h"
#include "core/pairwise_scorer.h"
#include "data/corpus.h"
#include "data/rtl_designs.h"
#include "scratch_dir.h"
#include "util/contract.h"
#include "util/rng.h"

namespace gnn4ip::audit {
namespace {

constexpr std::size_t kNoIndex = core::ShardedCorpus::kNoIndex;

std::vector<data::CorpusItem> small_corpus_items() {
  data::RtlCorpusOptions options;
  options.instances_per_family = 2;
  options.families = {"adder", "crc8", "parity", "counter"};
  return data::build_rtl_corpus(options);
}

std::vector<train::GraphEntry> small_corpus() {
  return make_graph_entries(small_corpus_items());
}

TEST(AuditService, ScreenBitIdenticalToScoreNewRowsAcross1And2And8Workers) {
  // The acceptance bar: screen() verdict similarities equal the rows of
  // PairwiseScorer::score_new_rows on an identically built corpus — not
  // approximately, bit-for-bit — for any worker count. Submissions
  // commit one at a time, so submission r scores against the library
  // AND its r earlier batch-mates (columns j < library + r of the
  // reference matrix).
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const std::size_t library = 5;

  std::vector<std::vector<ScreenReport>> per_thread;
  for (std::size_t threads : {1u, 2u, 8u}) {
    AuditOptions options;
    options.scorer.num_threads = threads;
    options.scorer.delta = -2.0F;  // every resident match becomes a verdict
    AuditService service(model, options);
    for (std::size_t i = 0; i < library; ++i) {
      ASSERT_TRUE(service.add_library(entries[i]).accepted);
    }
    for (std::size_t i = library; i < entries.size(); ++i) {
      ASSERT_TRUE(service.submit(entries[i]));
    }
    per_thread.push_back(service.screen());
  }

  // Reference: the hand-wired path the facade replaced.
  core::ScorerOptions ref_options;
  const core::PairwiseScorer reference =
      core::PairwiseScorer::from_entries(model, entries, ref_options);
  const tensor::Matrix expected = reference.score_new_rows(library);

  for (const std::vector<ScreenReport>& reports : per_thread) {
    ASSERT_EQ(reports.size(), entries.size() - library);
    for (std::size_t r = 0; r < reports.size(); ++r) {
      const ScreenReport& report = reports[r];
      ASSERT_TRUE(report.submission.accepted);
      ASSERT_EQ(report.verdicts.size(), library + r);
      std::map<std::string, float> by_name;
      for (const Verdict& v : report.verdicts) {
        by_name[v.matched] = v.similarity;
      }
      for (std::size_t j = 0; j < library + r; ++j) {
        ASSERT_TRUE(by_name.count(entries[j].name));
        EXPECT_EQ(by_name[entries[j].name], expected.at(r, j))
            << "query " << report.submission.name << " vs "
            << entries[j].name;
      }
      ASSERT_TRUE(report.best.has_value());
      EXPECT_EQ(report.best->similarity, report.verdicts.front().similarity);
    }
  }
}

TEST(AuditService, VerilogSourcePathMatchesGraphPath) {
  // submit(name, verilog) runs parse → featurize → embed inside the
  // service; the scores must equal the pre-featurized GraphEntry path
  // bit-for-bit (same pipeline, same arithmetic).
  gnn::Hw2Vec model;
  const auto items = small_corpus_items();
  const auto entries = make_graph_entries(items);
  ASSERT_GE(items.size(), 4u);

  const auto screen_sims = [&](bool from_source) {
    AuditOptions options;
    options.scorer.delta = -2.0F;
    AuditService service(model, options);
    (void)service.add_library(entries[0]);
    (void)service.add_library(entries[1]);
    for (std::size_t i = 2; i < 4; ++i) {
      if (from_source) {
        EXPECT_TRUE(service.submit(items[i].name, items[i].verilog));
      } else {
        EXPECT_TRUE(service.submit(entries[i]));
      }
    }
    std::vector<float> sims;
    for (const ScreenReport& report : service.screen()) {
      EXPECT_TRUE(report.submission.accepted);
      for (const Verdict& v : report.verdicts) sims.push_back(v.similarity);
    }
    return sims;
  };

  const std::vector<float> from_source = screen_sims(true);
  const std::vector<float> from_graph = screen_sims(false);
  ASSERT_EQ(from_source.size(), from_graph.size());
  ASSERT_FALSE(from_source.empty());
  for (std::size_t i = 0; i < from_source.size(); ++i) {
    EXPECT_EQ(from_source[i], from_graph[i]);
  }
}

TEST(AuditService, MalformedDesignGetsDiagnosticWithoutKillingBatch) {
  gnn::Hw2Vec model;
  const auto items = small_corpus_items();
  AuditOptions options;
  options.scorer.delta = -2.0F;
  AuditService service(model, options);
  ASSERT_TRUE(service.add_library(items[0].name, items[0].verilog).accepted);

  ASSERT_TRUE(service.submit("good#1", items[1].verilog));
  ASSERT_TRUE(service.submit("broken", "module oops (input a, ;;;"));
  ASSERT_TRUE(service.submit("good#2", items[2].verilog));
  const std::vector<ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 3u);

  EXPECT_TRUE(reports[0].submission.accepted);
  EXPECT_TRUE(reports[0].best.has_value());
  EXPECT_FALSE(reports[1].submission.accepted);
  EXPECT_FALSE(reports[1].submission.error.message.empty());
  EXPECT_GT(reports[1].submission.error.location.line, 0);
  EXPECT_TRUE(reports[1].verdicts.empty());
  EXPECT_FALSE(reports[1].best.has_value());
  EXPECT_TRUE(reports[2].submission.accepted);
  EXPECT_TRUE(reports[2].best.has_value());

  // Only the two good designs joined the corpus.
  EXPECT_EQ(service.resident(), 3u);
  EXPECT_FALSE(service.contains("broken"));
}

TEST(AuditService, LibraryParseErrorReportsDiagnostic) {
  gnn::Hw2Vec model;
  AuditService service(model);
  const Submission s = service.add_library("bad-lib", "module (((");
  EXPECT_FALSE(s.accepted);
  EXPECT_FALSE(s.error.message.empty());
  EXPECT_EQ(service.resident(), 0u);
}

TEST(AuditService, EvictThenResubmitSameName) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.max_resident = 1;
  AuditService service(model, options);

  ASSERT_TRUE(service.submit("a", entries[0].tensors));
  (void)service.screen();
  EXPECT_TRUE(service.contains("a"));
  EXPECT_EQ(service.resident(), 1u);

  // "b" arrives: LRU evicts "a".
  ASSERT_TRUE(service.submit("b", entries[1].tensors));
  (void)service.screen();
  EXPECT_FALSE(service.contains("a"));
  EXPECT_TRUE(service.contains("b"));
  EXPECT_EQ(service.resident(), 1u);

  // Resubmitting the evicted name re-admits it cleanly.
  ASSERT_TRUE(service.submit("a", entries[0].tensors));
  const std::vector<ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].submission.accepted);
  EXPECT_TRUE(service.contains("a"));
  EXPECT_FALSE(service.contains("b"));
  EXPECT_EQ(service.resident(), 1u);
}

TEST(AuditService, PinnedEntriesAreNeverEvicted) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  AuditOptions options;
  options.scorer.delta = -2.0F;
  options.max_resident = 2;
  AuditService service(model, options);
  ASSERT_TRUE(service.add_library("lib:0", entries[0].tensors).accepted);
  ASSERT_TRUE(service.add_library("lib:1", entries[1].tensors).accepted);
  EXPECT_TRUE(service.pinned("lib:0"));

  for (std::size_t i = 2; i < 6; ++i) {
    ASSERT_TRUE(
        service.submit("q" + std::to_string(i), entries[i].tensors));
  }
  const std::vector<ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 4u);
  for (const ScreenReport& report : reports) {
    // Every query was screened against both library entries...
    EXPECT_TRUE(report.submission.accepted);
    EXPECT_EQ(report.verdicts.size(), 2u);
    // ...then evicted to respect max_resident == pinned library size.
    EXPECT_EQ(report.submission.corpus_index, kNoIndex);
  }
  EXPECT_EQ(service.resident(), 2u);
  EXPECT_TRUE(service.contains("lib:0"));
  EXPECT_TRUE(service.contains("lib:1"));
}

TEST(AuditService, CapacityOneCorpusScreensAndEvicts) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.scorer.delta = -2.0F;
  options.max_resident = 1;
  AuditService service(model, options);
  ASSERT_TRUE(service.add_library("lib", entries[0].tensors).accepted);

  ASSERT_TRUE(service.submit("query", entries[1].tensors));
  const std::vector<ScreenReport> reports = service.screen();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].submission.accepted);
  ASSERT_TRUE(reports[0].best.has_value());
  EXPECT_EQ(reports[0].best->matched, "lib");
  // The query could not stay resident (library is pinned, bound is 1).
  EXPECT_EQ(reports[0].submission.corpus_index, kNoIndex);
  EXPECT_EQ(service.resident(), 1u);
  EXPECT_TRUE(service.contains("lib"));
}

TEST(AuditService, ResubmittingResidentNameReplacesItsRow) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.scorer.delta = -2.0F;
  AuditService service(model, options);
  ASSERT_TRUE(service.add_library("lib", entries[0].tensors).accepted);

  ASSERT_TRUE(service.submit("x", entries[1].tensors));
  (void)service.screen();
  ASSERT_TRUE(service.contains("x"));
  const float before = service.corpus().score(service.index_of("lib"),
                                              service.index_of("x"));

  ASSERT_TRUE(service.submit("x", entries[2].tensors));
  (void)service.screen();
  EXPECT_EQ(service.resident(), 2u);
  const float after = service.corpus().score(service.index_of("lib"),
                                             service.index_of("x"));
  // entries[1] and entries[2] are different designs, so replacing the
  // row must change the cached score.
  EXPECT_NE(before, after);
}

TEST(AuditService, TopKIndicesConsistentWithNames) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.scorer.delta = -2.0F;
  AuditService service(model, options);
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.add_library(entries[i]).accepted);
  }
  const std::vector<Verdict> nearest = service.top_k(entries[0].name, 3);
  ASSERT_EQ(nearest.size(), 3u);
  for (const Verdict& v : nearest) {
    ASSERT_NE(v.corpus_index, kNoIndex);
    EXPECT_EQ(service.name(v.corpus_index), v.matched);
    EXPECT_TRUE(v.flagged);  // delta is -2: every match flags
  }
  for (std::size_t i = 1; i < nearest.size(); ++i) {
    EXPECT_GE(nearest[i - 1].similarity, nearest[i].similarity);
  }
  EXPECT_THROW((void)service.top_k("not-resident", 1),
               util::ContractViolation);
}

TEST(AuditService, NameIndexStaysConsistentThroughChurn) {
  // The name index maps a name to a slot whose corpus index compaction
  // rewrites in place. Through a few hundred commits with capacity
  // evictions, same-name replacements, pin and unpin, per-shard budget
  // evictions and a snapshot round trip, every resident name must
  // resolve to its own live row after every commit, and no slot leaks.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.num_shards = 2;
  options.max_resident = 12;
  options.shard_budget = 7;
  AuditService service(model, options);
  std::vector<std::string> names;
  for (int n = 0; n < 24; ++n) names.push_back("d" + std::to_string(n));
  const auto check = [&](std::size_t step) {
    const core::CorpusBackend& corpus = service.corpus();
    for (const std::string& name : names) {
      const std::size_t index = service.index_of(name);
      ASSERT_EQ(index != kNoIndex, service.contains(name)) << step;
      if (index == kNoIndex) continue;
      ASSERT_LT(index, corpus.size()) << step << " " << name;
      ASSERT_TRUE(corpus.live(index)) << step << " " << name;
      ASSERT_EQ(corpus.name(index), name) << step;
    }
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (corpus.live(i)) {
        ASSERT_EQ(service.index_of(corpus.name(i)), i) << step;
      }
    }
    const AuditService::NameSlots slots = service.name_slots();
    ASSERT_EQ(slots.names, corpus.live_count()) << step;
    ASSERT_EQ(slots.names + slots.free, slots.table) << step;
  };
  names.push_back("lib");
  ASSERT_TRUE(service.add_library("lib", entries[0].tensors).accepted);
  check(0);

  const test::ScratchDir scratch("gnn4ip_audit_churn");
  const std::string dir = (scratch.path() / "corpus").string();
  util::Rng rng(29);
  std::size_t replaced = 0;
  std::size_t budget_evictions = 0;
  for (std::size_t step = 1; step <= 300; ++step) {
    const std::string& name = names[rng.next_below(names.size() - 1)];
    const bool resident = service.contains(name);
    replaced += resident ? 1 : 0;
    const std::size_t before = service.resident();
    ASSERT_TRUE(service.submit(
        name, entries[rng.next_below(entries.size())].tensors));
    ASSERT_EQ(service.screen().size(), 1u);
    // More rows gone than max_resident asks for: a shard went over its
    // budget and gave one up.
    const std::size_t cap_only =
        std::min(options.max_resident, before + (resident ? 0 : 1));
    budget_evictions += service.resident() < cap_only ? 1 : 0;
    if (step % 23 == 0 && service.contains(name)) service.pin(name);
    if (step % 37 == 0) {
      for (const std::string& n : names) {
        if (n != "lib") service.unpin(n);
      }
    }
    if (step % 50 == 0) {
      ASSERT_TRUE(service.add_library("lib", entries[step % 8].tensors)
                      .accepted);
    }
    if (step == 150) {
      service.save_corpus(dir);
      service.load_corpus(dir);
    }
    check(step);
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(replaced, 0u);
  EXPECT_GT(budget_evictions, 0u);
}

TEST(AuditService, BoundedQueueRefusesBeyondCapacityUntilScreened) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditOptions options;
  options.queue_capacity = 2;
  AuditService service(model, options);
  EXPECT_TRUE(service.submit("a", entries[0].tensors));
  EXPECT_TRUE(service.submit("b", entries[1].tensors));
  EXPECT_FALSE(service.submit("c", entries[2].tensors));
  EXPECT_EQ(service.pending(), 2u);
  EXPECT_EQ(service.screen().size(), 2u);
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_TRUE(service.submit("c", entries[2].tensors));
}

TEST(AuditService, CorpusDimMatchesModelEmbeddingDim) {
  // Guards Hw2Vec::embedding_dim() against drifting from the width the
  // readout actually produces (the resident cache fixes its dim from a
  // real embedding).
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  AuditService service(model);
  ASSERT_TRUE(service.add_library(entries[0]).accepted);
  EXPECT_EQ(service.corpus().dim(), service.model().embedding_dim());
}

TEST(AuditService, EmptyScreenIsANoOp) {
  gnn::Hw2Vec model;
  AuditService service(model);
  EXPECT_TRUE(service.screen().empty());
  EXPECT_EQ(service.resident(), 0u);
}

TEST(CompileRtl, ReportsDiagnosticsInsteadOfThrowing) {
  const CompileResult good = compile_rtl(
      "module T (input a, output y);\n  assign y = a;\nendmodule\n");
  ASSERT_TRUE(good.ok);
  EXPECT_GT(good.design.tensors.num_nodes, 0u);

  const CompileResult bad = compile_rtl("module T (input a,,\n");
  ASSERT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.message.empty());
  EXPECT_GT(bad.error.location.line, 0);
  EXPECT_NE(bad.error.to_string().find(':'), std::string::npos);
}

TEST(Pipeline, CompileBatchAlignsResultsWithSources) {
  const Pipeline pipeline;
  const std::vector<std::string> sources = {
      "module A (input a, output y);\n  assign y = a;\nendmodule\n",
      "module broken (",
      "module B (input a, input b, output y);\n  assign y = a & b;\n"
      "endmodule\n",
  };
  for (std::size_t threads : {1u, 4u}) {
    const std::vector<CompileResult> results =
        pipeline.compile_batch(sources, threads);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_TRUE(results[2].ok);
    EXPECT_FALSE(results[1].error.message.empty());
  }
}

TEST(AsyncAuditor, FuturesMatchSynchronousScreenBitForBit) {
  // The daemon changes when screen() runs, never its arithmetic: the
  // reports delivered through futures equal a synchronous service's,
  // bit for bit, including with a sharded corpus underneath.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  const std::size_t library = 4;

  AuditOptions options;
  options.scorer.delta = -2.0F;
  // Screened submissions must not stay resident: the daemon batches
  // adaptively, and a design kept from an earlier batch would add
  // verdicts to later ones.
  options.max_resident = library;
  options.num_shards = 2;

  AuditService sync(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(sync.add_library(entries[i]).accepted);
  }
  std::vector<ScreenReport> expected;
  for (std::size_t i = library; i < entries.size(); ++i) {
    ASSERT_TRUE(sync.submit(entries[i]));
    for (ScreenReport& r : sync.screen()) expected.push_back(std::move(r));
  }

  AsyncAuditor auditor(model, options);
  for (std::size_t i = 0; i < library; ++i) {
    ASSERT_TRUE(auditor.service().add_library(entries[i]).accepted);
  }
  std::vector<std::future<ScreenReport>> futures;
  for (std::size_t i = library; i < entries.size(); ++i) {
    futures.push_back(auditor.submit(entries[i]));
  }
  ASSERT_EQ(futures.size(), expected.size());
  for (std::size_t r = 0; r < futures.size(); ++r) {
    const ScreenReport got = futures[r].get();
    const ScreenReport& want = expected[r];
    EXPECT_EQ(got.submission.name, want.submission.name);
    EXPECT_EQ(got.submission.accepted, want.submission.accepted);
    ASSERT_EQ(got.verdicts.size(), want.verdicts.size());
    for (std::size_t v = 0; v < want.verdicts.size(); ++v) {
      EXPECT_EQ(got.verdicts[v].matched, want.verdicts[v].matched);
      EXPECT_EQ(got.verdicts[v].similarity, want.verdicts[v].similarity);
    }
    ASSERT_EQ(got.best.has_value(), want.best.has_value());
    if (want.best) {
      EXPECT_EQ(got.best->matched, want.best->matched);
      EXPECT_EQ(got.best->similarity, want.best->similarity);
    }
  }
  auditor.quiesce();
  EXPECT_EQ(auditor.reported(), futures.size());
  EXPECT_GE(auditor.batches(), 1u);
}

TEST(AsyncAuditor, MalformedDesignResolvesItsFutureWithDiagnostic) {
  gnn::Hw2Vec model;
  const auto items = small_corpus_items();
  AsyncAuditor auditor(model);
  ASSERT_TRUE(
      auditor.service().add_library(items[0].name, items[0].verilog)
          .accepted);
  std::future<ScreenReport> good =
      auditor.submit("good", items[1].verilog);
  std::future<ScreenReport> bad =
      auditor.submit("broken", "module oops (input a, ;;;");
  const ScreenReport good_report = good.get();
  EXPECT_TRUE(good_report.submission.accepted);
  const ScreenReport bad_report = bad.get();
  EXPECT_FALSE(bad_report.submission.accepted);
  EXPECT_FALSE(bad_report.submission.error.message.empty());
  EXPECT_GT(bad_report.submission.error.location.line, 0);
}

TEST(AsyncAuditor, CallbackFiresOnConsumerThreadInScreeningOrder) {
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 4u);

  std::vector<std::string> seen;  // consumer-thread only, read after quiesce
  AsyncOptions async;
  async.on_report = [&seen](const ScreenReport& report) {
    seen.push_back(report.submission.name);
  };
  AuditOptions options;
  options.scorer.delta = -2.0F;
  AsyncAuditor auditor(model, options, std::move(async));
  std::vector<std::future<ScreenReport>> futures;
  for (std::size_t i = 0; i < 4; ++i) {
    futures.push_back(auditor.submit(entries[i]));
  }
  auditor.quiesce();
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i], entries[i].name);  // FIFO screening order
    EXPECT_EQ(futures[i].get().submission.name, entries[i].name);
  }
}

TEST(AsyncAuditor, CloseDrainsBacklogAndFulfilsEveryFuture) {
  // Submissions accepted before close() are screened, not dropped —
  // drain-on-close end to end.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 6u);
  AuditOptions options;
  options.scorer.delta = -2.0F;
  AsyncAuditor auditor(model, options);
  std::vector<std::future<ScreenReport>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(auditor.submit(entries[i]));
  }
  auditor.close();
  EXPECT_TRUE(auditor.closed());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ScreenReport report = futures[i].get();  // never a broken promise
    EXPECT_TRUE(report.submission.accepted) << report.submission.name;
  }
  EXPECT_EQ(auditor.reported(), futures.size());

  // After close, a submission resolves immediately with a rejection.
  std::future<ScreenReport> late = auditor.submit(entries[0]);
  const ScreenReport rejected = late.get();
  EXPECT_FALSE(rejected.submission.accepted);
  EXPECT_NE(rejected.submission.error.message.find("closed"),
            std::string::npos);
}

TEST(AsyncAuditor, ConcurrentProducersAllGetReports) {
  // Several producer threads hammer submit() while the daemon screens
  // continuously; every future resolves with the submission's own name.
  gnn::Hw2Vec model;
  const auto entries = small_corpus();
  ASSERT_GE(entries.size(), 4u);
  AuditOptions options;
  options.scorer.delta = -2.0F;
  options.max_resident = 1;  // constant churn through evict+compact
  AsyncAuditor auditor(model, options);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const train::GraphEntry& entry = entries[(p + i) % 4];
        const std::string name =
            "p" + std::to_string(p) + "#" + std::to_string(i);
        std::future<ScreenReport> future =
            auditor.submit(name, entry.tensors);
        const ScreenReport report = future.get();
        if (report.submission.name != name || !report.submission.accepted) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  auditor.quiesce();
  EXPECT_EQ(auditor.reported(), kProducers * kPerProducer);
  EXPECT_EQ(auditor.submitted(), kProducers * kPerProducer);
}

TEST(LruEvictionPolicy, EvictsColdestEvictableEntry) {
  LruEvictionPolicy lru;
  lru.touch("a");
  lru.touch("b");
  lru.touch("c");
  lru.touch("a");  // "b" is now coldest
  const auto any = [](const std::string&) { return true; };
  ASSERT_TRUE(lru.victim(any).has_value());
  EXPECT_EQ(*lru.victim(any), "b");
  // Pinned-style exclusion: skip "b", evict next-coldest.
  EXPECT_EQ(*lru.victim([](const std::string& n) { return n != "b"; }), "c");
  lru.erase("b");
  EXPECT_EQ(*lru.victim(any), "c");
  lru.erase("a");
  lru.erase("c");
  EXPECT_FALSE(lru.victim(any).has_value());
}

}  // namespace
}  // namespace gnn4ip::audit
