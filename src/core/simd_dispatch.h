// Runtime-dispatched SIMD kernel backends for the int8 prefilter sweeps.
//
// The scoring layers funnel every float cell through the scalar
// cosine_cell of cosine_kernels.h — that scalar arithmetic IS the
// determinism contract, so it can never change. This header adds the
// fast lane in front of it: a small table of function pointers
// (KernelOps) with one implementation per backend, selected at runtime
// by CPU feature detection (CPUID-backed __builtin_cpu_supports on x86,
// compile-time NEON on aarch64) or forced through ScorerOptions::kernel
// / the GNN4IP_KERNEL environment variable. The kernels only decide
// which candidates are rescored, and soundly, so no backend can change
// a verdict: int8 dot products are exact integers on every backend
// (integer addition is associative), and the bound arithmetic carries
// margins wider than any reassociation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gnn4ip::core {

/// Which kernel implementation services the dispatched paths.
/// kAuto resolves through GNN4IP_KERNEL (scalar|avx2|neon|auto), then
/// CPU detection; forcing an unsupported backend is a hard error, never
/// a silent fallback.
enum class KernelBackend : std::uint8_t { kAuto, kScalar, kAvx2, kNeon };

/// Stable lowercase name ("auto", "scalar", "avx2", "neon").
[[nodiscard]] const char* backend_name(KernelBackend backend);

/// Parse a backend name (the GNN4IP_KERNEL / --kernel vocabulary).
/// Throws util::ContractViolation on anything else.
[[nodiscard]] KernelBackend parse_backend(std::string_view name);

/// True when this process can execute `backend` (kAuto and kScalar are
/// always supported; kAvx2 needs AVX2+FMA at runtime; kNeon needs an
/// aarch64 build).
[[nodiscard]] bool backend_supported(KernelBackend backend);

/// The best supported backend on this host (never kAuto).
[[nodiscard]] KernelBackend detect_backend();

/// Resolve a request to a concrete backend: an explicit request must be
/// supported (hard error otherwise); kAuto defers to GNN4IP_KERNEL when
/// set (same strictness), else detect_backend().
[[nodiscard]] KernelBackend resolve_backend(KernelBackend requested);

/// Query-side constants of quant_screen_sweep's bound test, hoisted
/// once per (query row, block). Built by make_sweep_query()
/// (cosine_kernels.h) from the query's QuantGate.
struct QuantSweepQuery {
  double c_scale = 0.0;  // query scale — multiplies scale[j]·dots[j]
  double c_e = 0.0;      // (s·‖q‖ + ‖e‖)·margin — multiplies e[j]
  double c_sq = 0.0;     // ‖e‖·margin — multiplies sq[j]
  double c_norm = 0.0;   // dim·2·eps·‖x‖·margin — multiplies normd[j]
  double c_abs = 0.0;    // absolute margin floor
  double floor = 0.0;    // denominator floor (kNormFloor as double)
  float qnorm = 0.0F;    // fl(row_norm) — the float denominator factor
};

/// SoA view of a candidate block's cached quantization stats, one entry
/// per row, as quant_screen_sweep consumes them. Built per shard by the
/// caller from EmbeddingStore's cached per-row values.
struct QuantStatsSoa {
  const double* scale = nullptr;  // per-row quantization scale s
  const double* sq = nullptr;     // s·‖q‖
  const double* e = nullptr;      // ‖e‖ upper bound
  const double* normd = nullptr;  // double(fl(row_norm))
  const float* normf = nullptr;   // fl(row_norm) — float denominator factor
};

/// One backend's kernel table. All pointers are non-null.
struct KernelOps {
  KernelBackend backend = KernelBackend::kScalar;

  /// The prefilter's candidate sweep over a contiguous int8 row block
  /// (dim int8 per row): for j in [0, n),
  ///   dots[j] = Σ_k q[k]·rows[j*dim + k]   (exact int32)
  ///   num[j]  = qc.c_scale·scale[j]·dots[j] + qc.c_e·e[j] +
  ///             qc.c_sq·sq[j] + qc.c_norm·normd[j] + qc.c_abs
  ///   den[j]  = max(double(qc.qnorm · normf[j]), qc.floor)
  /// and every j with num[j] > prune_max·den[j] is appended (ascending)
  /// to hits; the return value is the hit count. num/den is an upper
  /// bound on the exact (unclamped) cosine cell — the query-side
  /// coefficients carry the same rigor margins as quant_gate_spread,
  /// which dominate any mul/add-vs-FMA reassociation, so
  /// `num ≤ t·den` always soundly implies `exact cosine ≤ t` for
  /// t ≥ −1 (pass prune_max = −inf to make every row a hit, +inf for
  /// none). dots and den are bit-identical across backends; num is NOT
  /// (FMA vs mul+add), so callers may only use it for conservative
  /// pruning, never for output values. The dots are written out because
  /// retained-candidate walks need them for quant_gate_bounds; the AVX2
  /// backend keeps 4-row dot reductions in registers until the margin
  /// test, which is where the screen's candidate sweep spends its time.
  std::size_t (*quant_screen_sweep)(const QuantSweepQuery& qc,
                                    const std::int8_t* q,
                                    const std::int8_t* rows, std::size_t dim,
                                    const QuantStatsSoa& stats, std::size_t n,
                                    double prune_max, std::int32_t* dots,
                                    double* num, double* den,
                                    std::uint32_t* hits) = nullptr;

  /// Second-phase scan over quant_screen_sweep's outputs: appends to hits
  /// (ascending) every j with num[j] ≥ keep_lb·den[j] — the candidates
  /// whose upper bound can still contend once a lower bound keep_lb on
  /// the best similarity is known — and returns the hit count. Pure
  /// comparisons on the caller's arrays, so decisions are deterministic
  /// for whatever num/den the screen sweep produced.
  std::size_t (*quant_survivor_scan)(const double* num, const double* den,
                                     std::size_t n, double keep_lb,
                                     std::uint32_t* hits) = nullptr;
};

/// The kernel table for `requested` after resolve_backend(). The tables
/// are static — the reference is valid for the process lifetime.
[[nodiscard]] const KernelOps& kernel_ops(KernelBackend requested);

}  // namespace gnn4ip::core
