// Free-function cosine kernels and the scoring knobs they share.
//
// Every layer that scores embeddings — the single-shard PairwiseScorer,
// the ShardedCorpus, and audit::AuditService — funnels through these
// kernels, so the arithmetic (accumulation order, norm floor, clamping)
// is defined exactly once. That single definition is what makes the
// repo's determinism guarantee composable: any path that scores the same
// two rows produces the same bits, no matter which layer asked.
//
// Per-cell arithmetic: dot product accumulated in ascending-k order,
// norms as sqrt of an ascending-k sum of squares, denominator floored at
// kNormFloor (all-zero embeddings score 0 instead of NaN), result
// clamped into [-1, 1].
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/simd_dispatch.h"
#include "tensor/matrix.h"

namespace gnn4ip::core {

/// Scoring knobs shared by every layer that scores pairs: the blocked
/// kernel, PairwiseScorer, ShardedCorpus, and audit::AuditService all
/// read this one struct instead of re-declaring thread/block/threshold
/// fields.
struct ScorerOptions {
  /// Worker threads for the embedding fan-out and the blocked kernel.
  /// 0 = the shared util::ThreadPool (GNN4IP_THREADS, else hardware
  /// concurrency). Results are bit-identical for any value.
  std::size_t num_threads = 0;
  /// Rows per tile of the blocked kernel. Tiles are the unit of work
  /// handed to threads; 64 rows of a 16-wide embedding fit comfortably
  /// in L1 alongside the column tile.
  std::size_t block_rows = 64;
  /// Decision boundary δ (Alg. 1): a pair is piracy when Ŷ > delta.
  float delta = 0.5F;
  /// Kernel backend for the int8 prefilter sweeps (simd_dispatch.h).
  /// Every float similarity is the scalar cosine_cell whatever this
  /// says, and the backends decide candidacy soundly, so results are
  /// bit-identical for any value.
  KernelBackend kernel = KernelBackend::kAuto;
  /// Enable the int8 quantized prefilter tier in
  /// ShardedCorpus::screen_new_rows / top_k / flag: candidates are
  /// screened by an int8 dot product with rigorous cosine bounds, and
  /// only candidates whose bound straddles the decision boundary are
  /// rescored exactly — outputs are bit-identical to the exact sweep.
  bool int8_prefilter = false;
};

/// One scored unordered pair (indices into the owning corpus).
struct PairScore {
  std::size_t a = 0;
  std::size_t b = 0;
  float similarity = 0.0F;  // Ŷ ∈ [−1, 1]
};

/// Fixed result order shared by every flag() implementation: descending
/// similarity, then ascending (a, b) — a total order over distinct
/// pairs, so sorted output is identical no matter which layer (or shard
/// bucketing) produced the candidates.
[[nodiscard]] inline bool flag_order(const PairScore& x, const PairScore& y) {
  if (x.similarity != y.similarity) return x.similarity > y.similarity;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

/// Guard on the norm *product*, exactly like PiracyDetector::similarity:
/// all-zero embeddings score 0 instead of NaN, and the result is clamped
/// into the documented [-1, 1] so every path agrees bit-for-bit on
/// degenerate inputs too.
inline constexpr float kNormFloor = 1e-8F;

/// Euclidean norm of one row (ascending-k sum of squares, then sqrt) —
/// the exact norm arithmetic of every kernel below.
[[nodiscard]] float row_norm(std::span<const float> row);

/// One cell of the batched kernels: ascending-k dot of two D-rows over a
/// precomputed norm product, floored and clamped. THE per-cell
/// definition — every loop that scores rows against precomputed norms
/// (cosine_rows, the score_new_rows paths, the shard_sweep.h sweeps)
/// must call this so the cross-layer bit-identity contract has exactly
/// one implementation to drift from.
[[nodiscard]] inline float cosine_cell(const float* a, const float* b,
                                       std::size_t dim, float norm_product) {
  float acc = 0.0F;
  for (std::size_t k = 0; k < dim; ++k) acc += a[k] * b[k];
  return std::clamp(acc / std::max(norm_product, kNormFloor), -1.0F, 1.0F);
}

/// row_norm of every row of a flat row-major rows×dim buffer.
[[nodiscard]] std::vector<float> row_norms(std::span<const float> data,
                                           std::size_t rows, std::size_t dim);

/// Cosine of two equal-length rows, bit-identical to a cell of
/// cosine_rows on the same inputs.
[[nodiscard]] float cosine_pair(std::span<const float> a,
                                std::span<const float> b);

/// Cosine similarity between every row of `a` and every row of `b`
/// (result is a.rows() × b.rows()). The blocked kernel behind
/// PairwiseScorer, exposed for reuse and benchmarking. Zero rows score 0.
[[nodiscard]] tensor::Matrix cosine_rows(const tensor::Matrix& a,
                                         const tensor::Matrix& b,
                                         const ScorerOptions& options = {});

/// Same kernel over raw row-major buffers (`a` is a_rows×dim, `b` is
/// b_rows×dim) — lets a resident cache score straight out of its rows
/// without materializing an N×D Matrix copy per call.
[[nodiscard]] tensor::Matrix cosine_rows(std::span<const float> a,
                                         std::size_t a_rows,
                                         std::span<const float> b,
                                         std::size_t b_rows, std::size_t dim,
                                         const ScorerOptions& options = {});

// ---- Quantized prefilter math --------------------------------------------
// One row of the int8 tier, as the bound kernel consumes it. The store
// decomposes each float row x as x = scale·q + e (symmetric per-row
// quantization, |e[k]| ≤ scale/2) and caches upper bounds on ‖q‖ and
// ‖e‖ plus the exact float row_norm the scoring kernels divide by.

struct QuantRowView {
  const std::int8_t* q = nullptr;  // dim int8 components
  float scale = 0.0F;              // max|x| / 127
  float qnorm = 0.0F;              // upper bound on ‖q‖₂
  float enorm = 0.0F;              // upper bound on ‖e‖₂ = ‖x − scale·q‖₂
  float norm = 0.0F;               // fl(row_norm(x)) — the exact denominator
};

/// Rigorous enclosure of one exact cosine cell.
struct CosineBounds {
  float lb = 0.0F;
  float ub = 0.0F;
};

/// Per-row constants of the bound arithmetic below, hoisted so candidate
/// sweeps pay only the pair-dependent multiplies. Building one gate per
/// row once (make_quant_gate) and combining gates per pair keeps the
/// screen's inner loop at ~a dozen double ops with no division — the
/// full CosineBounds (division + outward float rounding) is only needed
/// for the few candidates a sweep actually retains.
struct QuantGate {
  const std::int8_t* q = nullptr;  // dim int8 components
  double scale = 0.0;              // s = max|x| / 127
  double sq = 0.0;                 // s·‖q‖ — multiplies the other row's enorm
  double e = 0.0;                  // upper bound on ‖e‖₂
  double slack = 0.0;              // dim·1.2e-7·‖x‖ — accumulation slack factor
  float norm = 0.0F;               // fl(row_norm(x)) — the exact denominator
};

[[nodiscard]] inline QuantGate make_quant_gate(const QuantRowView& v,
                                               std::size_t dim) {
  QuantGate g;
  g.q = v.q;
  g.scale = v.scale;
  g.sq = static_cast<double>(v.scale) * v.qnorm;
  g.e = v.enorm;
  g.slack = static_cast<double>(dim) * 1.2e-7 * v.norm;
  g.norm = v.norm;
  return g;
}

/// Margin added around sa·sb·dot_i8 so the enclosure covers both the
/// quantization residual (Cauchy–Schwarz on dot(a,b) = sa·sb·(qa·qb) +
/// sa·qa·eb + sb·qb·ea + ea·eb) and the float rounding of the exact
/// kernel's ascending-k accumulation (γ_dim ≈ dim·2⁻²⁴, widened to
/// 2·dim·eps). Everything runs in double: these margins dominate any
/// double rounding by many orders of magnitude, so the enclosure stays
/// rigorous without per-operation directed rounding.
[[nodiscard]] inline double quant_gate_spread(const QuantGate& a,
                                              const QuantGate& b) {
  const double residual = a.sq * b.e + b.sq * a.e + a.e * b.e;
  const double slack = a.slack * b.norm + 1e-30;
  return (residual + slack) * 1.000001 + 1e-12;
}

/// The query-side coefficients of KernelOps::quant_screen_sweep —
/// algebraically `approx + quant_gate_spread` with the a-row terms
/// factored out and the 1.000001 margin distributed onto each
/// coefficient: num = c_scale·s_b·dot + c_e·e_b + c_sq·(s_b·‖q_b‖) +
/// c_norm·‖x_b‖ + c_abs. Distribution and FMA change the rounding by a
/// few ulps at most, which the same margins absorb, so num/den stays a
/// rigorous upper bound on the exact (unclamped) cosine cell.
[[nodiscard]] inline QuantSweepQuery make_sweep_query(const QuantGate& a) {
  QuantSweepQuery qc;
  qc.c_scale = a.scale;
  qc.c_e = (a.sq + a.e) * 1.000001;
  qc.c_sq = a.e * 1.000001;
  qc.c_norm = a.slack * 1.000001;
  qc.c_abs = 1e-30 * 1.000001 + 1e-12;
  qc.floor = static_cast<double>(kNormFloor);
  qc.qnorm = a.norm;
  return qc;
}

/// EXACTLY the denominator cosine_cell divides by: a float product of
/// the cached norms, floored (in double, but the float floor value).
[[nodiscard]] inline double quant_gate_denom(const QuantGate& a,
                                             const QuantGate& b) {
  const float norm_product = a.norm * b.norm;
  return std::max(static_cast<double>(norm_product),
                  static_cast<double>(kNormFloor));
}

/// Bounds on cosine_cell(a, b, dim, a.norm * b.norm) from the int8 dot
/// product `dot_i8` = Σ qa[k]·qb[k] alone: the *computed* cosine_cell
/// value always lies in [lb, ub] — the guarantee that makes bound-based
/// pruning provably verdict-preserving.
[[nodiscard]] inline CosineBounds quant_gate_bounds(const QuantGate& a,
                                                    const QuantGate& b,
                                                    std::int32_t dot_i8) {
  const double approx = a.scale * b.scale * dot_i8;
  const double spread = quant_gate_spread(a, b);
  const double denom = quant_gate_denom(a, b);
  const double lb = std::clamp((approx - spread) / denom, -1.0, 1.0);
  const double ub = std::clamp((approx + spread) / denom, -1.0, 1.0);
  // Round the enclosure outward when narrowing to float, then re-clamp:
  // the exact cell is clamped into [-1, 1], so ±1 stay valid bounds.
  CosineBounds bounds;
  bounds.lb = std::max(-1.0F, std::nextafterf(static_cast<float>(lb), -2.0F));
  bounds.ub = std::min(1.0F, std::nextafterf(static_cast<float>(ub), 2.0F));
  return bounds;
}

/// Convenience form over raw row views — builds both gates in place.
/// Hot sweeps should hoist the gates instead and combine them per pair.
[[nodiscard]] inline CosineBounds quantized_cosine_bounds(
    const QuantRowView& a, const QuantRowView& b, std::int32_t dot_i8,
    std::size_t dim) {
  return quant_gate_bounds(make_quant_gate(a, dim), make_quant_gate(b, dim),
                           dot_i8);
}

}  // namespace gnn4ip::core
