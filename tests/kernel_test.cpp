// SIMD dispatch + quantized prefilter tests: the acceptance bar for the
// retrieval fast lanes is that they are *invisible* to results.
//
//   * Every float similarity is the scalar cosine_cell, whatever the
//     backend knob says.
//   * Int8 dots are associative — every backend returns the same
//     integer, so prefilter candidacy never depends on the host.
//   * quantized_cosine_bounds must ENCLOSE the exact cosine — a pruned
//     candidate is provably irrelevant, so screen/top_k/flag with the
//     prefilter on are bit-identical to the exhaustive scan, for any
//     shard count × worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "audit/audit_service.h"
#include "core/cosine_kernels.h"
#include "core/embedding_store.h"
#include "core/gnn4ip.h"
#include "core/pairwise_scorer.h"
#include "core/shard_sweep.h"
#include "core/sharded_corpus.h"
#include "core/simd_dispatch.h"
#include "data/corpus.h"
#include "tensor/matrix.h"
#include "util/contract.h"
#include "util/rng.h"

namespace gnn4ip::core {
namespace {

/// Scoped GNN4IP_KERNEL override that restores the previous value (the
/// dispatcher re-reads the variable on every resolve).
class EnvGuard {
 public:
  explicit EnvGuard(const char* value) {
    const char* old = std::getenv("GNN4IP_KERNEL");
    if (old != nullptr) saved_ = old;
    if (value != nullptr) {
      ::setenv("GNN4IP_KERNEL", value, 1);
    } else {
      ::unsetenv("GNN4IP_KERNEL");
    }
  }
  ~EnvGuard() {
    if (saved_) {
      ::setenv("GNN4IP_KERNEL", saved_->c_str(), 1);
    } else {
      ::unsetenv("GNN4IP_KERNEL");
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// The scalar backend first, then every SIMD backend this host runs.
std::vector<KernelBackend> all_backends() {
  std::vector<KernelBackend> out{KernelBackend::kScalar};
  if (backend_supported(KernelBackend::kAvx2)) {
    out.push_back(KernelBackend::kAvx2);
  }
  if (backend_supported(KernelBackend::kNeon)) {
    out.push_back(KernelBackend::kNeon);
  }
  return out;
}

/// Σ a[k]·b[k] in 64 bits — the reference every backend's int8 dots meet.
std::int64_t wide_dot(const std::int8_t* a, const std::int8_t* b,
                      std::size_t d) {
  std::int64_t acc = 0;
  for (std::size_t k = 0; k < d; ++k) {
    acc += static_cast<std::int64_t>(a[k]) * b[k];
  }
  return acc;
}

tensor::Matrix row_matrix(std::span<const float> values) {
  tensor::Matrix m(1, values.size());
  std::span<float> row = m.row(0);
  for (std::size_t k = 0; k < values.size(); ++k) row[k] = values[k];
  return m;
}

/// Synthetic embedding rows: dense uniform noise plus a sprinkling of
/// adversarial shapes (zero rows, sub-kNormFloor rows, one-hot spikes,
/// constant rows) so the edge behaviour of every kernel gets exercised.
std::vector<std::vector<float>> synth_rows(std::size_t n, std::size_t d,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> rows(n, std::vector<float>(d, 0.0F));
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 16) {
      case 7:  // all-zero row: clamps to the kNormFloor denominator
        break;
      case 11:  // below kNormFloor: denominator clamps, cosine ~0
        for (float& x : rows[i]) x = rng.uniform(-1e-10F, 1e-10F);
        break;
      case 13:  // one-hot spike
        rows[i][rng.next_below(d)] = rng.flip(0.5) ? 1.0F : -1.0F;
        break;
      case 15:  // constant row (quantizes exactly)
        for (float& x : rows[i]) x = rng.uniform(-1.0F, 1.0F);
        rows[i].assign(d, rows[i][0]);
        break;
      default:
        for (float& x : rows[i]) x = rng.uniform(-1.0F, 1.0F);
        break;
    }
  }
  return rows;
}

/// Fill `corpus` (immovable — mutexes) with `resident` rows plus
/// `fresh` incoming rows; a third of the incoming rows are
/// near-duplicates of residents so the screen has genuine piracy hits
/// to flag, not just noise.
void fill_synth_corpus(ShardedCorpus& corpus, std::size_t resident,
                       std::size_t fresh, std::size_t d) {
  const std::vector<std::vector<float>> rows =
      synth_rows(resident, d, /*seed=*/41);
  for (std::size_t i = 0; i < resident; ++i) {
    corpus.add("res#" + std::to_string(i), row_matrix(rows[i]));
  }
  util::Rng rng(97);
  for (std::size_t i = 0; i < fresh; ++i) {
    std::vector<float> row(d);
    if (i % 3 == 0 && resident > 0) {
      row = rows[rng.next_below(resident)];
      for (float& x : row) x += rng.uniform(-0.01F, 0.01F);
    } else {
      for (float& x : row) x = rng.uniform(-1.0F, 1.0F);
    }
    corpus.add("new#" + std::to_string(i), row_matrix(row));
  }
}

// ---- Dispatch resolution --------------------------------------------------

TEST(KernelDispatch, ParseAndNameRoundTrip) {
  for (const KernelBackend b :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2,
        KernelBackend::kNeon}) {
    EXPECT_EQ(parse_backend(backend_name(b)), b);
  }
  EXPECT_THROW((void)parse_backend("sse9"), util::ContractViolation);
  EXPECT_THROW((void)parse_backend(""), util::ContractViolation);
  EXPECT_THROW((void)parse_backend("AVX2"), util::ContractViolation);
}

TEST(KernelDispatch, DetectionIsConcreteAndSupported) {
  const KernelBackend detected = detect_backend();
  EXPECT_NE(detected, KernelBackend::kAuto);
  EXPECT_TRUE(backend_supported(detected));
  EXPECT_TRUE(backend_supported(KernelBackend::kScalar));
  EXPECT_TRUE(backend_supported(KernelBackend::kAuto));
}

TEST(KernelDispatch, EnvKnobSteersAutoButNotExplicitRequests) {
  {
    EnvGuard env("scalar");
    EXPECT_EQ(resolve_backend(KernelBackend::kAuto), KernelBackend::kScalar);
    // An explicit request wins over the environment.
    EXPECT_EQ(resolve_backend(detect_backend()), detect_backend());
  }
  {
    EnvGuard env(nullptr);
    EXPECT_EQ(resolve_backend(KernelBackend::kAuto), detect_backend());
  }
  {
    EnvGuard env("auto");
    EXPECT_EQ(resolve_backend(KernelBackend::kAuto), detect_backend());
  }
  {
    EnvGuard env("bogus");
    EXPECT_THROW((void)resolve_backend(KernelBackend::kAuto),
                 util::ContractViolation);
  }
}

TEST(KernelDispatch, ForcingAnUnsupportedBackendIsAHardError) {
  for (const KernelBackend b : {KernelBackend::kAvx2, KernelBackend::kNeon}) {
    if (backend_supported(b)) {
      EXPECT_EQ(kernel_ops(b).backend, b);
      continue;
    }
    EXPECT_THROW((void)resolve_backend(b), util::ContractViolation);
    EXPECT_THROW((void)kernel_ops(b), util::ContractViolation);
    // The same strictness through the environment: no silent fallback.
    EnvGuard env(backend_name(b));
    EXPECT_THROW((void)resolve_backend(KernelBackend::kAuto),
                 util::ContractViolation);
  }
}

// ---- Int8 dots are exact on every backend ---------------------------------

TEST(KernelSweep, Int8DotIsBitIdenticalAcrossBackends) {
  // quant_screen_sweep's dots output on every backend against a wide
  // reference. 37 rows leave a ragged tail past every 4-row grouping,
  // the dims straddle the 16-lane int8 width (non-multiples of 16 take
  // the AVX2 unfused fallback), and the values span the full quantized
  // range including the extremes.
  constexpr std::size_t kRows = 37;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(7);
  for (const std::size_t d : {1UL, 2UL, 3UL, 5UL, 8UL, 13UL, 15UL, 16UL,
                              17UL, 31UL, 32UL, 33UL, 48UL, 64UL, 100UL}) {
    const auto draw = [&rng] {
      return static_cast<std::int8_t>(
          static_cast<int>(rng.next_below(255)) - 127);
    };
    std::vector<std::int8_t> q(d);
    std::vector<std::int8_t> rows(kRows * d);
    for (std::int8_t& x : q) x = draw();
    for (std::int8_t& x : rows) x = draw();
    // Stats only feed num/den; with prune_max = +inf nothing is a hit.
    const std::vector<double> zeros(kRows, 0.0);
    const std::vector<float> ones(kRows, 1.0F);
    const QuantStatsSoa stats{zeros.data(), zeros.data(), zeros.data(),
                              zeros.data(), ones.data()};
    QuantSweepQuery qc;
    qc.floor = 1.0;
    for (const KernelBackend b : all_backends()) {
      const KernelOps& ops = kernel_ops(b);
      EXPECT_EQ(ops.backend, b);
      std::vector<std::int32_t> dots(kRows, 0);
      std::vector<double> num(kRows);
      std::vector<double> den(kRows);
      std::vector<std::uint32_t> hits(kRows);
      EXPECT_EQ(ops.quant_screen_sweep(qc, q.data(), rows.data(), d, stats,
                                       kRows, kInf, dots.data(), num.data(),
                                       den.data(), hits.data()),
                0U);
      for (std::size_t j = 0; j < kRows; ++j) {
        EXPECT_EQ(dots[j], wide_dot(q.data(), rows.data() + j * d, d))
            << backend_name(b) << " dim " << d << " row " << j;
      }
    }
  }
}

EmbeddingStore synth_store(std::size_t n, std::size_t d, std::uint64_t seed) {
  EmbeddingStore store;
  const auto rows = synth_rows(n, d, seed);
  for (std::size_t i = 0; i < n; ++i) {
    store.add("r#" + std::to_string(i), row_matrix(rows[i]));
  }
  return store;
}

// ---- Bound soundness ------------------------------------------------------

TEST(QuantBounds, EncloseTheExactCosineOnFuzzedRows) {
  // 1000 fuzzed pairs drawn from a store holding every adversarial row
  // shape synth_rows produces: the enclosure lb ≤ exact ≤ ub must never
  // fail — one violation would let the prefilter prune a true match.
  constexpr std::size_t kRows = 512;
  constexpr std::size_t kDim = 16;
  EmbeddingStore store;
  const auto rows = synth_rows(kRows, kDim, /*seed=*/3);
  for (std::size_t i = 0; i < kRows; ++i) {
    store.add("r#" + std::to_string(i), row_matrix(rows[i]));
  }
  util::Rng rng(17);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t i = rng.next_below(kRows);
    const std::size_t j = rng.next_below(kRows);
    const QuantRowView a = store.quant_view(i);
    const QuantRowView b = store.quant_view(j);
    const auto dot = static_cast<std::int32_t>(wide_dot(a.q, b.q, kDim));
    const CosineBounds bounds = quantized_cosine_bounds(a, b, dot, kDim);
    const float exact = cosine_cell(store.row(i).data(), store.row(j).data(),
                                    kDim, store.norm(i) * store.norm(j));
    ASSERT_LE(bounds.lb, exact) << "pair (" << i << ", " << j << ")";
    ASSERT_GE(bounds.ub, exact) << "pair (" << i << ", " << j << ")";
    EXPECT_LE(bounds.lb, bounds.ub);
    EXPECT_GE(bounds.lb, -1.0F);
    EXPECT_LE(bounds.ub, 1.0F);
  }
}

TEST(QuantBounds, StoreStatsSoaMatchesPerRowGates) {
  // The store-resident SoA must agree to the bit with gates built from
  // quant_view — including after remove() + compact() shuffles rows.
  constexpr std::size_t kDim = 16;
  EmbeddingStore store = synth_store(64, kDim, 5);
  const auto check_all = [&store] {
    const QuantStatsSoa soa = store.quant_stats();
    for (std::size_t i = 0; i < store.size(); ++i) {
      const QuantGate g = make_quant_gate(store.quant_view(i), kDim);
      EXPECT_EQ(soa.scale[i], g.scale) << "row " << i;
      EXPECT_EQ(soa.sq[i], g.sq) << "row " << i;
      EXPECT_EQ(soa.e[i], g.e) << "row " << i;
      EXPECT_EQ(soa.normd[i], static_cast<double>(g.norm)) << "row " << i;
      EXPECT_EQ(soa.normf[i], g.norm) << "row " << i;
    }
  };
  check_all();
  store.remove(3);
  store.remove(40);
  (void)store.compact();
  check_all();
}

TEST(QuantBounds, ScreenSweepIsSoundAndSelfConsistent) {
  // The screen sweep's contract, per backend: (1) dots and den are
  // bit-identical to the per-pair reference on every backend; (2) the
  // hit list is exactly {j : num[j] > prune_max·den[j]}, ascending;
  // (3) soundness: every candidate the exact scalar cell puts above the
  // threshold is a hit (nothing scoring > t is ever pruned), and
  // prune_max = −inf keeps everything.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const std::size_t d : {8UL, 16UL, 20UL, 32UL}) {
    const EmbeddingStore store = synth_store(37, d, 2000 + d);
    const QuantStatsSoa soa = store.quant_stats();
    const std::size_t n = store.size();
    const std::int8_t* base = store.qrow(0).data();
    for (const std::size_t qi : {0UL, 7UL, 13UL}) {
      const QuantGate ga = make_quant_gate(store.quant_view(qi), d);
      const QuantSweepQuery qc = make_sweep_query(ga);
      std::vector<std::int32_t> ref_dots(n);
      for (std::size_t j = 0; j < n; ++j) {
        ref_dots[j] = static_cast<std::int32_t>(
            wide_dot(ga.q, store.qrow(j).data(), d));
      }
      for (const double prune_max : {0.5, -kInf}) {
        for (const KernelBackend b : all_backends()) {
          SCOPED_TRACE(std::string(backend_name(b)) + " dim " +
                       std::to_string(d) + " query " + std::to_string(qi) +
                       " prune_max " + std::to_string(prune_max));
          const KernelOps& ops = kernel_ops(b);
          std::vector<std::int32_t> dots(n);
          std::vector<double> num(n);
          std::vector<double> den(n);
          std::vector<std::uint32_t> hits(n);
          const std::size_t n_hits = ops.quant_screen_sweep(
              qc, ga.q, base, d, soa, n, prune_max, dots.data(), num.data(),
              den.data(), hits.data());
          EXPECT_EQ(dots, ref_dots);
          std::size_t expect_hit = 0;
          for (std::size_t j = 0; j < n; ++j) {
            const QuantGate gb = make_quant_gate(store.quant_view(j), d);
            EXPECT_EQ(den[j], quant_gate_denom(ga, gb)) << "row " << j;
            const bool is_hit = num[j] > prune_max * den[j];
            if (is_hit) {
              ASSERT_LT(expect_hit, n_hits);
              EXPECT_EQ(hits[expect_hit], j);
              ++expect_hit;
            }
            const float exact =
                cosine_cell(store.row(qi).data(), store.row(j).data(), d,
                            store.norm(qi) * store.norm(j));
            if (static_cast<double>(exact) > prune_max) {
              EXPECT_TRUE(is_hit) << "row " << j << " exact " << exact;
            }
          }
          EXPECT_EQ(expect_hit, n_hits);
          if (prune_max == -kInf) {
            EXPECT_EQ(n_hits, n);
          }
        }
      }
    }
  }
}

TEST(QuantBounds, SurvivorScanMatchesItsPredicateOnEveryBackend) {
  // num/den are caller inputs here, so unlike the margin sweep the hit
  // list must be bit-identical across backends: exactly
  // {j : num[j] ≥ keep_lb·den[j]}, ascending.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(23);
  for (const std::size_t n : {0UL, 1UL, 3UL, 4UL, 37UL, 256UL}) {
    std::vector<double> num(n);
    std::vector<double> den(n);
    for (std::size_t j = 0; j < n; ++j) {
      num[j] = static_cast<double>(rng.uniform(-1.5F, 1.5F));
      den[j] = static_cast<double>(rng.uniform(1e-8F, 2.0F));
    }
    for (const double keep_lb : {0.25, -kInf}) {
      std::vector<std::uint32_t> want;
      for (std::size_t j = 0; j < n; ++j) {
        if (num[j] >= keep_lb * den[j]) {
          want.push_back(static_cast<std::uint32_t>(j));
        }
      }
      for (const KernelBackend b : all_backends()) {
        std::vector<std::uint32_t> got(n + 1, 0xFFFFFFFFU);
        const std::size_t n_hits = kernel_ops(b).quant_survivor_scan(
            num.data(), den.data(), n, keep_lb, got.data());
        ASSERT_EQ(n_hits, want.size())
            << backend_name(b) << " n=" << n << " keep_lb=" << keep_lb;
        for (std::size_t h = 0; h < n_hits; ++h) {
          EXPECT_EQ(got[h], want[h]) << backend_name(b) << " hit " << h;
        }
      }
    }
  }
}

// ---- Prefilter ≡ exact ----------------------------------------------------

TEST(QuantPrefilter, ScreenBitIdenticalToExactSweepOn10kRows) {
  constexpr std::size_t kResident = 10'000;
  constexpr std::size_t kFresh = 8;
  constexpr std::size_t kDim = 16;
  constexpr float kDelta = 0.5F;
  ScorerOptions exact_options;
  ScorerOptions pre_options;
  pre_options.int8_prefilter = true;
  ShardedCorpus exact(2, exact_options);
  ShardedCorpus pre(2, pre_options);
  fill_synth_corpus(exact, kResident, kFresh, kDim);
  fill_synth_corpus(pre, kResident, kFresh, kDim);

  const std::vector<ScreenRow> want = exact.screen_new_rows(kResident, kDelta);
  const std::vector<ScreenRow> got = pre.screen_new_rows(kResident, kDelta);
  const tensor::Matrix matrix = exact.score_new_rows(kResident);
  ASSERT_EQ(want.size(), kFresh);
  ASSERT_EQ(got.size(), kFresh);
  std::size_t total_rescored = 0;
  std::size_t total_scanned = 0;
  for (std::size_t r = 0; r < kFresh; ++r) {
    // The exhaustive screen rescores everything it scans.
    EXPECT_EQ(want[r].scanned, kResident);
    EXPECT_EQ(want[r].rescored, kResident);
    EXPECT_EQ(got[r].scanned, kResident);
    ASSERT_EQ(got[r].flagged.size(), want[r].flagged.size()) << "row " << r;
    for (std::size_t m = 0; m < want[r].flagged.size(); ++m) {
      EXPECT_EQ(got[r].flagged[m].index, want[r].flagged[m].index);
      EXPECT_EQ(got[r].flagged[m].similarity, want[r].flagged[m].similarity);
      // And both agree with the full matrix sweep, bit for bit.
      EXPECT_EQ(want[r].flagged[m].similarity,
                matrix.at(r, want[r].flagged[m].index));
    }
    ASSERT_TRUE(want[r].best.has_value());
    ASSERT_TRUE(got[r].best.has_value());
    EXPECT_EQ(got[r].best->index, want[r].best->index);
    EXPECT_EQ(got[r].best->similarity, want[r].best->similarity);
    total_rescored += got[r].rescored;
    total_scanned += got[r].scanned;
  }
  // The point of the tier: the overwhelming majority of candidates are
  // pruned by bounds alone (random 16-dim rows sit far below δ = 0.5).
  EXPECT_LT(total_rescored, total_scanned / 4);
}

TEST(QuantPrefilter, SettleBestRescoresAnEqualBoundAtALowerIndex) {
  // A hand-built best band: rows 0-2 are one embedding, so their exact
  // similarities equal the running best's (row 1). A pruned candidate
  // whose bound equals that similarity can still tie it exactly, and at
  // a lower index it would win the tie-break, so it must be rescored;
  // at a higher index it cannot win and is skipped, and a bound below
  // the best ends the walk.
  const std::vector<float> twin = {0.25F, -1.0F, 0.5F, 2.0F};
  const std::vector<float> far = {-1.0F, 0.5F, 0.0F, 0.0F};
  const std::vector<float> query = {1.0F, 0.5F, -0.25F, 1.5F};
  EmbeddingStore store;
  for (std::size_t i = 0; i < 3; ++i) {
    (void)store.add("twin" + std::to_string(i), row_matrix(twin));
  }
  (void)store.add("far", row_matrix(far));
  EmbeddingStore probes;
  (void)probes.add("probe", row_matrix(query));
  const ScreenProbe probe = screen_probe(probes, 0);
  const float sim = cosine_cell(probe.row, store.row(1).data(), store.dim(),
                                probe.norm * store.norm(1));

  ScreenRow row;
  row.best = ScreenMatch{1, sim};
  std::vector<detail::BandCandidate> band = {
      {2, sim}, {3, sim - 0.5F}, {0, sim}};
  detail::settle_best(band, probe, store, row);
  ASSERT_TRUE(row.best.has_value());
  EXPECT_EQ(row.best->index, 0u);
  EXPECT_EQ(row.best->similarity, sim);
  EXPECT_EQ(row.rescored, 1u);  // row 0 only
}

TEST(QuantPrefilter, TopKBitIdenticalToExhaustiveScan) {
  constexpr std::size_t kRows = 2'000;
  constexpr std::size_t kDim = 16;
  ScorerOptions exact_options;
  ScorerOptions pre_options;
  pre_options.int8_prefilter = true;
  ShardedCorpus exact(4, exact_options);
  ShardedCorpus pre(4, pre_options);
  fill_synth_corpus(exact, kRows, 8, kDim);
  fill_synth_corpus(pre, kRows, 8, kDim);
  const auto expect_same = [&](std::size_t i, std::size_t k) {
    const std::vector<PairScore> want = exact.top_k(i, k);
    const std::vector<PairScore> got = pre.top_k(i, k);
    ASSERT_EQ(got.size(), want.size()) << "i=" << i << " k=" << k;
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].a, want[r].a);
      EXPECT_EQ(got[r].b, want[r].b);
      EXPECT_EQ(got[r].similarity, want[r].similarity);
    }
  };
  for (const std::size_t i : {0UL, 777UL, kRows + 3UL}) {
    for (const std::size_t k : {1UL, 5UL, 32UL}) expect_same(i, k);
  }

  // More inputs for the threshold cut: four more names holding row
  // 777's embedding (exact ties straddle the k-th place), tombstones
  // inside the candidate prefix, a query (row 1500) alone in its shard,
  // and k from 1 up to past the live candidates.
  const std::size_t first_tie = exact.size();
  const tensor::Matrix tied = row_matrix(exact.row(777));
  for (ShardedCorpus* corpus : {&exact, &pre}) {
    for (int copy = 0; copy < 4; ++copy) {
      corpus->add("tie#" + std::to_string(copy), tied);
    }
    for (const std::size_t dead : {3UL, 500UL, 1200UL}) corpus->remove(dead);
    for (std::size_t j = 0; j < corpus->size(); ++j) {
      if (j != 1500 && corpus->live(j) &&
          corpus->shard_of(j) == corpus->shard_of(1500)) {
        corpus->remove(j);
      }
    }
  }
  ASSERT_EQ(pre.shard_live_count(pre.shard_of(1500)), 1u);
  const std::size_t live = pre.live_count();
  for (const std::size_t i : {777UL, first_tie, first_tie + 3, 1500UL, 0UL}) {
    if (!pre.live(i)) continue;
    for (const std::size_t k : {1UL, 2UL, 4UL, 5UL, 32UL, live - 1, live + 9}) {
      expect_same(i, k);
    }
  }

  // The per-store function itself, on every backend, against a brute
  // force over the store: candidate limits below the store size (rows
  // admitted after a snapshot), tombstones, an excluded row, and ties.
  for (std::size_t s = 0; s < pre.num_shards(); ++s) {
    const EmbeddingStore& store = pre.shard(s);
    const std::size_t n = store.size();
    for (const std::size_t limit : {n, n - 7, n / 2, std::size_t{1}}) {
      for (const std::size_t query : {std::size_t{0}, n - 1, n / 3}) {
        for (const std::size_t exclude : {EmbeddingStore::kNoIndex, query}) {
          for (const std::size_t k : {1UL, 4UL, 10UL, limit + 1}) {
            std::vector<ScreenMatch> want;
            for (std::size_t j = 0; j < limit; ++j) {
              if (j == exclude || !store.live(j)) continue;
              const float sim =
                  cosine_cell(store.row(query).data(), store.row(j).data(),
                              kDim, store.norm(query) * store.norm(j));
              want.push_back({j, sim});
            }
            std::stable_sort(want.begin(), want.end(),
                             [](const ScreenMatch& x, const ScreenMatch& y) {
                               return x.similarity > y.similarity;
                             });
            want.resize(std::min(k, want.size()));
            for (const KernelBackend b : all_backends()) {
              const std::vector<ScreenMatch> got =
                  store_top_k(store, limit, exclude, store, query, k,
                              /*prefilter=*/true, kernel_ops(b));
              ASSERT_EQ(got.size(), want.size())
                  << backend_name(b) << " shard " << s << " limit " << limit
                  << " query " << query << " k " << k;
              for (std::size_t r = 0; r < want.size(); ++r) {
                EXPECT_EQ(got[r].index, want[r].index);
                EXPECT_EQ(got[r].similarity, want[r].similarity);
              }
            }
          }
        }
      }
    }
  }
}

TEST(QuantPrefilter, FlagBitIdenticalToExhaustiveScan) {
  // ShardedCorpus::flag over {1, 2, 4} shards, prefilter off and on,
  // against the independent PairwiseScorer::flag: every row resident
  // under four names (exact ties straddle shards), tombstones, and δ
  // from pruning hard (0.5, 0.9) to flagging every pair (−2: the gate
  // never fires, ub > −2 always).
  constexpr std::size_t kRows = 96;
  constexpr std::size_t kDim = 16;
  const std::vector<std::vector<float>> rows =
      synth_rows(kRows, kDim, /*seed=*/59);
  const auto fill = [&rows](auto& corpus) {
    for (int owner = 0; owner < 4; ++owner) {
      for (std::size_t i = 0; i < kRows; ++i) {
        corpus.add("r#" + std::to_string(i) + "@" + std::to_string(owner),
                   row_matrix(rows[i]));
      }
    }
    for (const std::size_t dead : {1UL, 50UL, 200UL, 4 * kRows - 1}) {
      corpus.remove(dead);
    }
  };
  PairwiseScorer reference;
  fill(reference);
  for (const float delta : {0.5F, 0.9F, -2.0F}) {
    const std::vector<PairScore> want = reference.flag(delta);
    ASSERT_FALSE(want.empty()) << "delta " << delta;
    for (const std::size_t shards : {1UL, 2UL, 4UL}) {
      for (const bool prefilter : {false, true}) {
        SCOPED_TRACE("delta " + std::to_string(delta) + ", " +
                     std::to_string(shards) + " shards, prefilter " +
                     (prefilter ? "on" : "off"));
        ScorerOptions options;
        options.int8_prefilter = prefilter;
        ShardedCorpus corpus(shards, options);
        fill(corpus);
        const std::vector<PairScore> got = corpus.flag(delta);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(got[r].a, want[r].a);
          EXPECT_EQ(got[r].b, want[r].b);
          EXPECT_EQ(got[r].similarity, want[r].similarity);
        }
        if (shards != 2 || !prefilter) continue;
        // The per-store function itself, on every backend, against a
        // brute force over the store in (a, b) order: candidate limits
        // below the store size and tombstones inside them.
        for (std::size_t sh = 0; sh < shards; ++sh) {
          const EmbeddingStore& store = corpus.shard(sh);
          for (const std::size_t limit : {store.size(), store.size() / 2}) {
            std::vector<PairScore> brute;
            for (std::size_t a = 0; a < limit; ++a) {
              for (std::size_t b = a + 1; b < limit; ++b) {
                if (!store.live(a) || !store.live(b)) continue;
                const float sim =
                    cosine_cell(store.row(a).data(), store.row(b).data(),
                                kDim, store.norm(a) * store.norm(b));
                if (sim > delta) brute.push_back({a, b, sim});
              }
            }
            for (const KernelBackend b : all_backends()) {
              for (const bool gate : {false, true}) {
                const std::vector<PairScore> pairs =
                    store_flag(store, limit, delta, gate, kernel_ops(b));
                ASSERT_EQ(pairs.size(), brute.size())
                    << backend_name(b) << " shard " << sh << " limit "
                    << limit << " gate " << gate;
                for (std::size_t r = 0; r < brute.size(); ++r) {
                  EXPECT_EQ(pairs[r].a, brute[r].a);
                  EXPECT_EQ(pairs[r].b, brute[r].b);
                  EXPECT_EQ(pairs[r].similarity, brute[r].similarity);
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(QuantPrefilter, ScreenInvariantAcrossShardAndWorkerCounts) {
  constexpr std::size_t kResident = 300;
  constexpr std::size_t kFresh = 6;
  constexpr std::size_t kDim = 16;
  constexpr float kDelta = 0.5F;
  // Past the synthetic rows: three more names holding resident row 17's
  // embedding, then a probe near it. Screened at δ = 0.99, its best is a
  // four-way exact tie no bound can settle, resolved by lowest index.
  constexpr std::size_t kTieProbe = kResident + kFresh + 3;
  const auto fill = [&](ShardedCorpus& corpus) {
    fill_synth_corpus(corpus, kResident, kFresh, kDim);
    const tensor::Matrix tied = row_matrix(corpus.row(17));
    for (int copy = 0; copy < 3; ++copy) {
      corpus.add("tie#" + std::to_string(copy), tied);
    }
    tensor::Matrix probe = tied;
    util::Rng rng(5);
    for (float& x : probe.row(0)) x += rng.uniform(-0.5F, 0.5F);
    corpus.add("near#17", probe);
  };
  // Reference: exhaustive, single shard, inline workers.
  ScorerOptions exact_options;
  exact_options.num_threads = 1;
  ShardedCorpus reference(1, exact_options);
  fill(reference);
  const std::vector<ScreenRow> want =
      reference.screen_new_rows(kResident, kDelta);
  const std::vector<ScreenRow> want_tied =
      reference.screen_new_rows(kTieProbe, 0.99F);
  ASSERT_TRUE(want_tied[0].flagged.empty());
  ASSERT_EQ(want_tied[0].best->index, 17u);
  for (const std::size_t shards : {1UL, 2UL, 4UL}) {
    for (const std::size_t workers : {1UL, 2UL, 8UL}) {
      ScorerOptions options;
      options.int8_prefilter = true;
      options.num_threads = workers;
      ShardedCorpus corpus(shards, options);
      fill(corpus);
      for (const bool tied : {false, true}) {
        const std::vector<ScreenRow> got =
            tied ? corpus.screen_new_rows(kTieProbe, 0.99F)
                 : corpus.screen_new_rows(kResident, kDelta);
        const std::vector<ScreenRow>& expected = tied ? want_tied : want;
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t r = 0; r < expected.size(); ++r) {
          SCOPED_TRACE("shards=" + std::to_string(shards) +
                       " workers=" + std::to_string(workers) +
                       " row=" + std::to_string(r) + (tied ? " tied" : ""));
          ASSERT_EQ(got[r].flagged.size(), expected[r].flagged.size());
          for (std::size_t m = 0; m < expected[r].flagged.size(); ++m) {
            EXPECT_EQ(got[r].flagged[m].index, expected[r].flagged[m].index);
            EXPECT_EQ(got[r].flagged[m].similarity,
                      expected[r].flagged[m].similarity);
          }
          ASSERT_EQ(got[r].best.has_value(), expected[r].best.has_value());
          if (expected[r].best) {
            EXPECT_EQ(got[r].best->index, expected[r].best->index);
            EXPECT_EQ(got[r].best->similarity,
                      expected[r].best->similarity);
          }
          EXPECT_EQ(got[r].scanned, expected[r].scanned);
        }
      }
    }
  }
}

TEST(QuantPrefilter, AuditVerdictsIdenticalWithPrefilterOn) {
  // End-to-end: real embeddings through the audit layer, prefilter off
  // (the reference) vs on across shard × worker configurations — every
  // report field must match exactly.
  gnn::Hw2Vec model;
  data::RtlCorpusOptions corpus_options;
  corpus_options.instances_per_family = 2;
  corpus_options.families = {"adder", "crc8", "parity", "counter", "pwm"};
  const auto entries =
      make_graph_entries(data::build_rtl_corpus(corpus_options));
  ASSERT_GE(entries.size(), 8u);
  const std::size_t library = entries.size() - 3;

  std::vector<std::vector<audit::ScreenReport>> runs;
  for (const bool prefilter : {false, true}) {
    for (const std::size_t shards : {1UL, 2UL, 4UL}) {
      for (const std::size_t workers : {1UL, 2UL, 8UL}) {
        audit::AuditOptions options;
        options.num_shards = shards;
        options.scorer.num_threads = workers;
        options.scorer.int8_prefilter = prefilter;
        options.scorer.delta = 0.3F;
        audit::AuditService service(model, options);
        for (std::size_t i = 0; i < library; ++i) {
          ASSERT_TRUE(service.add_library(entries[i]).accepted);
        }
        for (std::size_t i = library; i < entries.size(); ++i) {
          ASSERT_TRUE(service.submit(entries[i]));
        }
        runs.push_back(service.screen());
      }
    }
  }
  const std::vector<audit::ScreenReport>& reference = runs.front();
  ASSERT_EQ(reference.size(), entries.size() - library);
  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), reference.size()) << "run " << run;
    for (std::size_t r = 0; r < reference.size(); ++r) {
      SCOPED_TRACE("run=" + std::to_string(run) + " report=" +
                   std::to_string(r));
      const audit::ScreenReport& got = runs[run][r];
      const audit::ScreenReport& want = reference[r];
      EXPECT_EQ(got.submission.name, want.submission.name);
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
        EXPECT_EQ(got.best->corpus_index, want.best->corpus_index);
        EXPECT_EQ(got.best->similarity, want.best->similarity);
        EXPECT_EQ(got.best->flagged, want.best->flagged);
      }
    }
  }
}

// ---- Exact mode ignores the backend knob ----------------------------------

TEST(ExactMode, BackendKnobNeverPerturbsExactScoring) {
  // Every float cell is the scalar cosine_cell no matter which backend
  // is requested — identical bits with the knob set to the fastest
  // supported backend.
  constexpr std::size_t kRows = 128;
  constexpr std::size_t kDim = 16;
  ScorerOptions scalar_options;
  scalar_options.kernel = KernelBackend::kScalar;
  ScorerOptions fast_options;
  fast_options.kernel = detect_backend();
  ShardedCorpus a(2, scalar_options);
  ShardedCorpus b(2, fast_options);
  fill_synth_corpus(a, kRows, 4, kDim);
  fill_synth_corpus(b, kRows, 4, kDim);
  const tensor::Matrix want = a.score_new_rows(kRows);
  const tensor::Matrix got = b.score_new_rows(kRows);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t c = 0; c < want.cols(); ++c) {
      ASSERT_EQ(got.at(r, c), want.at(r, c)) << "cell (" << r << "," << c
                                             << ")";
    }
  }
}

}  // namespace
}  // namespace gnn4ip::core
