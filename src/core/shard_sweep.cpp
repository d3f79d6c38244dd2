#include "core/shard_sweep.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

namespace gnn4ip::core {

namespace detail {

void settle_best(std::vector<BandCandidate>& band, const ScreenProbe& probe,
                 const EmbeddingStore& store, ScreenRow& row) {
  std::sort(band.begin(), band.end(),
            [](const BandCandidate& x, const BandCandidate& y) {
              if (x.ub != y.ub) return x.ub > y.ub;
              return x.local < y.local;
            });
  std::optional<ScreenMatch>& best = row.best;
  for (const BandCandidate& c : band) {
    if (best) {
      if (c.ub < best->similarity) break;
      if (c.ub == best->similarity && c.local > best->index) continue;
    }
    ++row.rescored;
    const float sim =
        cosine_cell(probe.row, store.row(c.local).data(), store.dim(),
                    probe.norm * store.norm(c.local));
    if (!best || sim > best->similarity ||
        (sim == best->similarity && c.local < best->index)) {
      best = ScreenMatch{c.local, sim};
    }
  }
}

}  // namespace detail

namespace {

/// The prefiltered screen's per-candidate lanes, allocated once per
/// caller: store_flag screens every row through one of these.
class SweepScratch {
 public:
  /// Make room for `lanes` candidates (grows only).
  void ensure(std::size_t lanes) {
    if (lanes <= lanes_) return;
    dots = std::make_unique_for_overwrite<std::int32_t[]>(lanes);
    num = std::make_unique_for_overwrite<double[]>(lanes);
    den = std::make_unique_for_overwrite<double[]>(lanes);
    hits = std::make_unique_for_overwrite<std::uint32_t[]>(lanes);
    lanes_ = lanes;
  }

  std::unique_ptr<std::int32_t[]> dots;
  std::unique_ptr<double[]> num;
  std::unique_ptr<double[]> den;
  std::unique_ptr<std::uint32_t[]> hits;

 private:
  std::size_t lanes_ = 0;
};

/// store_screen with the live-candidate count (the `scanned` tally of
/// the prefiltered path) and the scratch lanes supplied by the caller.
std::vector<ScreenRow> screen_prefix(const EmbeddingStore& store,
                                     std::size_t limit, std::size_t live_n,
                                     std::span<const ScreenProbe> probes,
                                     float delta, bool prefilter,
                                     const KernelOps& ops,
                                     SweepScratch& scratch) {
  std::vector<ScreenRow> out(probes.size());
  const std::size_t d = store.dim();
  if (!prefilter) {
    // Candidate-outer, so each resident row is read once for all probes.
    const float* rows = store.rows().data();
    const std::span<const float> norms = store.norms();
    for (std::size_t local = 0; local < limit; ++local) {
      if (!store.live(local)) continue;
      const float* rb = rows + local * d;
      const float norm_b = norms[local];
      for (std::size_t r = 0; r < probes.size(); ++r) {
        ScreenRow& p = out[r];
        ++p.scanned;
        ++p.rescored;
        const float sim =
            cosine_cell(probes[r].row, rb, d, probes[r].norm * norm_b);
        if (sim > delta) p.flagged.push_back({local, sim});
        if (!p.best || sim > p.best->similarity) {
          p.best = ScreenMatch{local, sim};
        }
      }
    }
    return out;
  }
  // The candidate-side gate stats live in the store's incrementally
  // maintained SoA, so each probe costs one fused sweep over the
  // contiguous int8 block and the scalar walks visit only the hit lists
  // the kernels emit. Dead rows burn a sweep lane but are skipped in the
  // walks. Every scratch lane is written by the sweep before it is read.
  const QuantStatsSoa soa = store.quant_stats();
  scratch.ensure(limit);
  std::int32_t* const dots = scratch.dots.get();
  double* const num = scratch.num.get();
  double* const den = scratch.den.get();
  std::uint32_t* const hits = scratch.hits.get();
  const std::int8_t* qbase = limit > 0 ? store.qrow(0).data() : nullptr;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // num ≤ t·den implies exact ≤ t only for t ≥ −1 (the exact cell is
  // clamped); a sub-range delta disables pruning (−inf: every row is a
  // hit and rescores — the exact sweep).
  const double prune_max = delta >= -1.0F ? static_cast<double>(delta) : -kInf;
  std::vector<detail::BandCandidate> band;
  for (std::size_t r = 0; r < probes.size(); ++r) {
    ScreenRow& p = out[r];
    p.scanned = live_n;
    if (limit == 0) continue;
    const ScreenProbe& probe = probes[r];
    // Pass 1 — the rescore class: every candidate the bounds could not
    // prune gets the exact cell (flags, best, and a witness for pass 2).
    const std::size_t n_rescore = ops.quant_screen_sweep(
        make_sweep_query(probe.gate), probe.gate.q, qbase, d, soa, limit,
        prune_max, dots, num, den, hits);
    float best_lb = -2.0F;
    for (std::size_t h = 0; h < n_rescore; ++h) {
      const std::size_t local = hits[h];
      if (!store.live(local)) continue;
      ++p.rescored;
      const float sim = cosine_cell(probe.row, store.row(local).data(), d,
                                    probe.norm * soa.normf[local]);
      if (sim > delta) p.flagged.push_back({local, sim});
      if (!p.best || sim > p.best->similarity) p.best = ScreenMatch{local, sim};
      if (sim > best_lb) best_lb = sim;
    }
    // Pass 2 — the best band among the pruned: a candidate below the
    // witness loses strictly to the row that set best_lb, so index
    // tie-breaks never come into play (−inf below −1 keeps everything).
    const double keep_lb = best_lb > -1.0F ? best_lb : -kInf;
    double best_lb_d = best_lb;
    const std::size_t n_band =
        ops.quant_survivor_scan(num, den, limit, keep_lb, hits);
    band.clear();
    for (std::size_t h = 0; h < n_band; ++h) {
      const std::size_t local = hits[h];
      if (!store.live(local)) continue;
      const double nm = num[local];
      const double dn = den[local];
      // Skip the rescore class (handled in pass 1), and keep tightening:
      // candidates below the *running* witness drop unstored.
      if (nm > prune_max * dn) continue;
      if (best_lb > -1.0F && nm < best_lb_d * dn) continue;
      const CosineBounds bounds = quant_gate_bounds(
          probe.gate, make_quant_gate(store.quant_view(local), d),
          dots[local]);
      band.push_back({local, bounds.ub});
      if (bounds.lb > best_lb) {
        best_lb = bounds.lb;
        best_lb_d = bounds.lb;
      }
    }
    detail::settle_best(band, probe, store, p);
  }
  return out;
}

}  // namespace

ScreenProbe screen_probe(const EmbeddingStore& store, std::size_t i) {
  return {store.row(i).data(), store.norm(i),
          make_quant_gate(store.quant_view(i), store.dim())};
}

std::vector<ScreenRow> store_screen(const EmbeddingStore& store,
                                    std::size_t limit,
                                    std::span<const ScreenProbe> probes,
                                    float delta, bool prefilter,
                                    const KernelOps& ops) {
  // Holes and tombstones are not live, so over the whole store the live
  // candidates are exactly live_count(); a prefix needs the walk.
  std::size_t live_n = 0;
  if (limit == store.size()) {
    live_n = store.live_count();
  } else {
    for (std::size_t local = 0; local < limit; ++local) {
      live_n += store.live(local) ? 1 : 0;
    }
  }
  SweepScratch scratch;
  return screen_prefix(store, limit, live_n, probes, delta, prefilter, ops,
                       scratch);
}

std::vector<PairScore> store_flag(const EmbeddingStore& store,
                                  std::size_t limit, float delta,
                                  bool prefilter, const KernelOps& ops) {
  std::vector<PairScore> by_b;
  SweepScratch scratch;
  if (prefilter) scratch.ensure(limit);
  std::size_t live_below = 0;  // live rows in [0, b): row b's candidates
  for (std::size_t b = 0; b < limit; ++b) {
    if (!store.live(b)) continue;
    const ScreenProbe probe = screen_probe(store, b);
    const std::vector<ScreenRow> screened =
        screen_prefix(store, b, live_below, {&probe, 1}, delta, prefilter,
                      ops, scratch);
    for (const ScreenMatch& m : screened.front().flagged) {
      by_b.push_back({m.index, b, m.similarity});
    }
    ++live_below;
  }
  // Screening emits pairs ascending by (b, a); a stable counting
  // placement by a reorders them to (a, b) in linear time.
  std::vector<std::size_t> next(limit + 1, 0);
  for (const PairScore& p : by_b) ++next[p.a + 1];
  for (std::size_t a = 0; a < limit; ++a) next[a + 1] += next[a];
  std::vector<PairScore> pairs(by_b.size());
  for (const PairScore& p : by_b) pairs[next[p.a]++] = p;
  return pairs;
}

std::vector<ScreenRow> merge_screen(
    std::span<const std::vector<ScreenRow>> parts,
    std::span<const std::vector<std::size_t>> globals) {
  std::vector<ScreenRow> out(parts.empty() ? 0 : parts.front().size());
  for (std::size_t r = 0; r < out.size(); ++r) {
    ScreenRow& row = out[r];
    std::size_t flags = 0;
    for (const std::vector<ScreenRow>& part : parts) {
      flags += part[r].flagged.size();
    }
    row.flagged.reserve(flags);
    for (std::size_t s = 0; s < parts.size(); ++s) {
      const ScreenRow& part = parts[s][r];
      row.scanned += part.scanned;
      row.rescored += part.rescored;
      for (const ScreenMatch& m : part.flagged) {
        row.flagged.push_back({globals[s][m.index], m.similarity});
      }
      if (part.best) {
        const ScreenMatch b{globals[s][part.best->index],
                            part.best->similarity};
        if (!row.best || b.similarity > row.best->similarity ||
            (b.similarity == row.best->similarity &&
             b.index < row.best->index)) {
          row.best = b;
        }
      }
    }
    std::sort(row.flagged.begin(), row.flagged.end(),
              [](const ScreenMatch& x, const ScreenMatch& y) {
                return x.index < y.index;
              });
  }
  return out;
}

std::vector<ScreenMatch> store_top_k(const EmbeddingStore& store,
                                    std::size_t limit, std::size_t exclude,
                                    const EmbeddingStore& query_store,
                                    std::size_t query_row, std::size_t k,
                                    bool prefilter, const KernelOps& ops) {
  std::vector<ScreenMatch> result;
  if (k == 0 || limit == 0) return result;
  const std::size_t d = query_store.dim();
  const float* query = query_store.row(query_row).data();
  const float query_norm = query_store.norm(query_row);
  const auto candidate = [&](std::size_t local) {
    return local != exclude && store.live(local);
  };
  const auto exact = [&](std::size_t local) {
    return cosine_cell(query, store.row(local).data(), d,
                       query_norm * store.norm(local));
  };
  std::size_t candidates = 0;
  for (std::size_t local = 0; local < limit; ++local) {
    candidates += candidate(local) ? 1 : 0;
  }
  if (!prefilter || candidates <= k) {
    // Exhaustive — and with k ≥ candidates every candidate is in the
    // result anyway, so there is nothing for bounds to prune.
    result.reserve(candidates);
    for (std::size_t local = 0; local < limit; ++local) {
      if (candidate(local)) result.push_back({local, exact(local)});
    }
  } else {
    const QuantGate gate =
        make_quant_gate(query_store.quant_view(query_row), d);
    const auto dots = std::make_unique_for_overwrite<std::int32_t[]>(limit);
    const auto num = std::make_unique_for_overwrite<double[]>(limit);
    const auto den = std::make_unique_for_overwrite<double[]>(limit);
    const auto hits = std::make_unique_for_overwrite<std::uint32_t[]>(limit);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    // prune_max = +inf emits no hits: the sweep runs for num/den, an
    // upper bound on every candidate's unclamped exact cell.
    (void)ops.quant_screen_sweep(make_sweep_query(gate), gate.q,
                                 store.qrow(0).data(), d, store.quant_stats(),
                                 limit, kInf, dots.get(), num.get(), den.get(),
                                 hits.get());
    // The k best-bounded candidates, in a min-heap on the bound. Any k
    // candidates give a sound threshold; the best-bounded give the
    // tightest one in practice.
    std::vector<std::pair<double, std::size_t>> seeds;
    seeds.reserve(k);
    const auto weaker = [](const std::pair<double, std::size_t>& x,
                           const std::pair<double, std::size_t>& y) {
      return x.first > y.first;
    };
    for (std::size_t local = 0; local < limit; ++local) {
      if (!candidate(local)) continue;
      const double ub = num[local] / den[local];
      if (seeds.size() < k) {
        seeds.emplace_back(ub, local);
        std::push_heap(seeds.begin(), seeds.end(), weaker);
      } else if (ub > seeds.front().first) {
        std::pop_heap(seeds.begin(), seeds.end(), weaker);
        seeds.back() = {ub, local};
        std::push_heap(seeds.begin(), seeds.end(), weaker);
      }
    }
    float threshold = 2.0F;
    for (const auto& seed : seeds) {
      threshold = std::min(threshold, exact(seed.second));
    }
    // k candidates score ≥ T, so one with num < T·den (exact < T) ranks
    // strictly below all of them. Sound only on the clamped range, hence
    // the > −1 guard (−inf keeps everything); equality survives, so an
    // exact tie at T still meets the index tie-break.
    const double keep_lb = threshold > -1.0F ? threshold : -kInf;
    const std::size_t n_keep = ops.quant_survivor_scan(
        num.get(), den.get(), limit, keep_lb, hits.get());
    for (std::size_t h = 0; h < n_keep; ++h) {
      const std::size_t local = hits[h];
      if (candidate(local)) result.push_back({local, exact(local)});
    }
  }
  const std::size_t keep = std::min(k, result.size());
  std::partial_sort(
      result.begin(), result.begin() + static_cast<std::ptrdiff_t>(keep),
      result.end(), [](const ScreenMatch& x, const ScreenMatch& y) {
        if (x.similarity != y.similarity) return x.similarity > y.similarity;
        return x.index < y.index;
      });
  result.resize(keep);
  return result;
}

std::vector<PairScore> merge_top_k(std::vector<PairScore> merged,
                                   std::size_t k) {
  const std::size_t keep = std::min(k, merged.size());
  std::partial_sort(
      merged.begin(), merged.begin() + static_cast<std::ptrdiff_t>(keep),
      merged.end(), [](const PairScore& x, const PairScore& y) {
        if (x.similarity != y.similarity) return x.similarity > y.similarity;
        return x.b < y.b;
      });
  merged.resize(keep);
  return merged;
}

std::size_t prefix_below(std::span<const std::size_t> globals,
                         std::size_t n) {
  // Holes read kNoIndex ≥ n: trailing holes fall outside the prefix,
  // where no sweep needs them.
  std::size_t limit = globals.size();
  while (limit > 0 && globals[limit - 1] >= n) --limit;
  return limit;
}

std::vector<std::size_t> retire_and_renumber(
    std::span<EmbeddingStore> stores, std::vector<ShardRef>& entries,
    std::span<std::vector<std::size_t>> globals) {
  std::vector<std::vector<std::size_t>> local_maps(stores.size());
  for (std::size_t s = 0; s < stores.size(); ++s) {
    local_maps[s] = stores[s].retire();
  }
  // Within a store, ascending global order is ascending local order and
  // a survivor's new row is never above its old one, so every write
  // lands above the store's earlier writes: a hole marked in a reclaimed
  // store is either overwritten by a later survivor or cut by the resize.
  constexpr std::size_t kNoIndex = EmbeddingStore::kNoIndex;
  std::vector<std::size_t> mapping(entries.size(), kNoIndex);
  std::size_t next = 0;
  for (std::size_t g = 0; g < entries.size(); ++g) {
    const ShardRef e = entries[g];
    const std::size_t local = local_maps[e.shard][e.local];
    if (local == kNoIndex) {
      globals[e.shard][e.local] = kNoIndex;
      continue;
    }
    mapping[g] = next;
    entries[next] = {e.shard, local};
    globals[e.shard][local] = next;
    ++next;
  }
  entries.resize(next);
  for (std::size_t s = 0; s < stores.size(); ++s) {
    globals[s].resize(stores[s].size());
  }
  return mapping;
}

}  // namespace gnn4ip::core
