#include "core/simd_dispatch.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/contract.h"

#if defined(__x86_64__) || defined(__i386__)
#define GNN4IP_HAVE_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#define GNN4IP_HAVE_NEON 1
#include <arm_neon.h>
#endif

namespace gnn4ip::core {
namespace {

// ---- Scalar backend ------------------------------------------------------
// The oracle every vector backend is tested against. The dot and margin
// helpers are the two halves of the screen sweep; the vector backends
// reuse the margin half where it has no wider form.

std::int32_t dot_i8_scalar(const std::int8_t* a, const std::int8_t* b,
                           std::size_t dim) {
  std::int32_t acc = 0;
  for (std::size_t k = 0; k < dim; ++k) {
    acc += static_cast<std::int32_t>(a[k]) * static_cast<std::int32_t>(b[k]);
  }
  return acc;
}

void dot_i8_sweep_scalar(const std::int8_t* q, const std::int8_t* rows,
                         std::size_t n, std::size_t dim, std::int32_t* out) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = dot_i8_scalar(q, rows + j * dim, dim);
  }
}

std::size_t quant_margin_sweep_scalar(const QuantSweepQuery& qc,
                                      const QuantStatsSoa& rows,
                                      const std::int32_t* dots, std::size_t n,
                                      double prune_max, double* num,
                                      double* den, std::uint32_t* hits) {
  std::size_t count = 0;
  for (std::size_t j = 0; j < n; ++j) {
    num[j] = qc.c_scale * rows.scale[j] * dots[j] + qc.c_e * rows.e[j] +
             qc.c_sq * rows.sq[j] + qc.c_norm * rows.normd[j] + qc.c_abs;
    const float norm_product = qc.qnorm * rows.normf[j];
    den[j] = std::max(static_cast<double>(norm_product), qc.floor);
    if (num[j] > prune_max * den[j]) {
      hits[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

std::size_t quant_screen_sweep_scalar(const QuantSweepQuery& qc,
                                      const std::int8_t* q,
                                      const std::int8_t* rows, std::size_t dim,
                                      const QuantStatsSoa& stats, std::size_t n,
                                      double prune_max, std::int32_t* dots,
                                      double* num, double* den,
                                      std::uint32_t* hits) {
  dot_i8_sweep_scalar(q, rows, n, dim, dots);
  return quant_margin_sweep_scalar(qc, stats, dots, n, prune_max, num, den,
                                   hits);
}

std::size_t quant_survivor_scan_scalar(const double* num, const double* den,
                                       std::size_t n, double keep_lb,
                                       std::uint32_t* hits) {
  std::size_t count = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (num[j] >= keep_lb * den[j]) {
      hits[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

// ---- AVX2+FMA backend ----------------------------------------------------
// Function-level target attributes instead of a -march build flag: the
// whole library stays runnable on pre-AVX2 hosts, and only the resolved
// dispatch table ever jumps into this code.

#if GNN4IP_HAVE_X86

__attribute__((target("avx2"))) std::int32_t dot_i8_avx2(const std::int8_t* a,
                                                         const std::int8_t* b,
                                                         std::size_t dim) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t k = 0;
  for (; k + 16 <= dim; k += 16) {
    // Widen to int16 lanes, then madd: |q| ≤ 127, so each int16 product
    // pair sums into int32 without overflow — exact integer arithmetic,
    // bit-identical to the scalar reference.
    const __m256i va = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + k)));
    const __m256i vb = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + k)));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
  }
  __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(1, 0, 3, 2)));
  lo = _mm_add_epi32(lo, _mm_shuffle_epi32(lo, _MM_SHUFFLE(2, 3, 0, 1)));
  std::int32_t sum = _mm_cvtsi128_si32(lo);
  for (; k < dim; ++k) {
    sum += static_cast<std::int32_t>(a[k]) * static_cast<std::int32_t>(b[k]);
  }
  return sum;
}

__attribute__((target("avx2"))) void dot_i8_sweep_avx2(
    const std::int8_t* q, const std::int8_t* rows, std::size_t n,
    std::size_t dim, std::int32_t* out) {
  // Same target attribute as dot_i8_avx2, so the per-row call inlines
  // and the sweep pays one dispatch indirection per block, not per row.
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = dot_i8_avx2(q, rows + j * dim, dim);
  }
}

__attribute__((target("avx2,fma"))) std::size_t quant_margin_sweep_avx2(
    const QuantSweepQuery& qc, const QuantStatsSoa& rows,
    const std::int32_t* dots, std::size_t n, double prune_max, double* num,
    double* den, std::uint32_t* hits) {
  const __m256d vc_scale = _mm256_set1_pd(qc.c_scale);
  const __m256d vc_e = _mm256_set1_pd(qc.c_e);
  const __m256d vc_sq = _mm256_set1_pd(qc.c_sq);
  const __m256d vc_norm = _mm256_set1_pd(qc.c_norm);
  const __m256d vc_abs = _mm256_set1_pd(qc.c_abs);
  const __m256d vfloor = _mm256_set1_pd(qc.floor);
  const __m128 vqnorm = _mm_set1_ps(qc.qnorm);
  const __m256d vprune = _mm256_set1_pd(prune_max);
  std::size_t count = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d dots_d = _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dots + j)));
    // FMA reassociates vs the scalar mul+add — covered by the rigor
    // margins baked into the coefficients, and num is documented as
    // not bit-pinned across backends.
    __m256d acc = _mm256_fmadd_pd(
        _mm256_mul_pd(vc_scale, _mm256_loadu_pd(rows.scale + j)), dots_d,
        vc_abs);
    acc = _mm256_fmadd_pd(vc_e, _mm256_loadu_pd(rows.e + j), acc);
    acc = _mm256_fmadd_pd(vc_sq, _mm256_loadu_pd(rows.sq + j), acc);
    acc = _mm256_fmadd_pd(vc_norm, _mm256_loadu_pd(rows.normd + j), acc);
    _mm256_storeu_pd(num + j, acc);
    // den stays bit-pinned: a float multiply (same rounding as the
    // scalar kernel), widened exactly, floored with max.
    const __m128 nf = _mm_mul_ps(vqnorm, _mm_loadu_ps(rows.normf + j));
    const __m256d dn = _mm256_max_pd(_mm256_cvtps_pd(nf), vfloor);
    _mm256_storeu_pd(den + j, dn);
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(acc, _mm256_mul_pd(vprune, dn), _CMP_GT_OQ));
    if (mask != 0) {
      for (int b = 0; b < 4; ++b) {
        if ((mask & (1 << b)) != 0) {
          hits[count++] = static_cast<std::uint32_t>(j + b);
        }
      }
    }
  }
  for (; j < n; ++j) {
    num[j] = qc.c_scale * rows.scale[j] * dots[j] + qc.c_e * rows.e[j] +
             qc.c_sq * rows.sq[j] + qc.c_norm * rows.normd[j] + qc.c_abs;
    const float norm_product = qc.qnorm * rows.normf[j];
    den[j] = std::max(static_cast<double>(norm_product), qc.floor);
    if (num[j] > prune_max * den[j]) {
      hits[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

__attribute__((target("avx2,fma"))) std::size_t quant_screen_sweep_avx2(
    const QuantSweepQuery& qc, const std::int8_t* q, const std::int8_t* rows,
    std::size_t dim, const QuantStatsSoa& stats, std::size_t n,
    double prune_max, std::int32_t* dots, double* num, double* den,
    std::uint32_t* hits) {
  if (dim == 0 || dim % 16 != 0) {
    // Odd dims take the unfused pair — correct for any dim, and the
    // fused path below then never needs a scalar dot tail that would
    // break its 4-row reduction tree.
    dot_i8_sweep_avx2(q, rows, n, dim, dots);
    return quant_margin_sweep_avx2(qc, stats, dots, n, prune_max, num, den,
                                   hits);
  }
  const __m256d vc_scale = _mm256_set1_pd(qc.c_scale);
  const __m256d vc_e = _mm256_set1_pd(qc.c_e);
  const __m256d vc_sq = _mm256_set1_pd(qc.c_sq);
  const __m256d vc_norm = _mm256_set1_pd(qc.c_norm);
  const __m256d vc_abs = _mm256_set1_pd(qc.c_abs);
  const __m256d vfloor = _mm256_set1_pd(qc.floor);
  const __m128 vqnorm = _mm_set1_ps(qc.qnorm);
  const __m256d vprune = _mm256_set1_pd(prune_max);
  std::size_t count = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    // Four rows' dots at once: per 16-wide chunk each row gets a widen +
    // madd into its own int32 accumulator, then one hadd tree reduces
    // all four accumulators to a single [d0 d1 d2 d3] vector — integer
    // adds in any order, so the dots are bit-identical to the scalar
    // reference and never leave registers before the margin test.
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    const std::int8_t* r0 = rows + j * dim;
    for (std::size_t k = 0; k < dim; k += 16) {
      // No lambda for the repeated widen-load: a lambda body would be a
      // separate function without this function's target attribute.
      const __m256i vq = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + k)));
      const __m256i v0 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + k)));
      const __m256i v1 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + dim + k)));
      const __m256i v2 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(r0 + 2 * dim + k)));
      const __m256i v3 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(r0 + 3 * dim + k)));
      acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(vq, v0));
      acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(vq, v1));
      acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(vq, v2));
      acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(vq, v3));
    }
    const __m256i t01 = _mm256_hadd_epi32(acc0, acc1);
    const __m256i t23 = _mm256_hadd_epi32(acc2, acc3);
    const __m256i t = _mm256_hadd_epi32(t01, t23);
    const __m128i s = _mm_add_epi32(_mm256_castsi256_si128(t),
                                    _mm256_extracti128_si256(t, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dots + j), s);
    // From here on, the quant_margin_sweep_avx2 body verbatim, fed from
    // the in-register dots.
    const __m256d dots_d = _mm256_cvtepi32_pd(s);
    __m256d acc = _mm256_fmadd_pd(
        _mm256_mul_pd(vc_scale, _mm256_loadu_pd(stats.scale + j)), dots_d,
        vc_abs);
    acc = _mm256_fmadd_pd(vc_e, _mm256_loadu_pd(stats.e + j), acc);
    acc = _mm256_fmadd_pd(vc_sq, _mm256_loadu_pd(stats.sq + j), acc);
    acc = _mm256_fmadd_pd(vc_norm, _mm256_loadu_pd(stats.normd + j), acc);
    _mm256_storeu_pd(num + j, acc);
    const __m128 nf = _mm_mul_ps(vqnorm, _mm_loadu_ps(stats.normf + j));
    const __m256d dn = _mm256_max_pd(_mm256_cvtps_pd(nf), vfloor);
    _mm256_storeu_pd(den + j, dn);
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(acc, _mm256_mul_pd(vprune, dn), _CMP_GT_OQ));
    if (mask != 0) {
      for (int b = 0; b < 4; ++b) {
        if ((mask & (1 << b)) != 0) {
          hits[count++] = static_cast<std::uint32_t>(j + b);
        }
      }
    }
  }
  for (; j < n; ++j) {
    dots[j] = dot_i8_avx2(q, rows + j * dim, dim);
    num[j] = qc.c_scale * stats.scale[j] * dots[j] + qc.c_e * stats.e[j] +
             qc.c_sq * stats.sq[j] + qc.c_norm * stats.normd[j] + qc.c_abs;
    const float norm_product = qc.qnorm * stats.normf[j];
    den[j] = std::max(static_cast<double>(norm_product), qc.floor);
    if (num[j] > prune_max * den[j]) {
      hits[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

__attribute__((target("avx2"))) std::size_t quant_survivor_scan_avx2(
    const double* num, const double* den, std::size_t n, double keep_lb,
    std::uint32_t* hits) {
  const __m256d vkeep = _mm256_set1_pd(keep_lb);
  std::size_t count = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d vn = _mm256_loadu_pd(num + j);
    const __m256d vd = _mm256_loadu_pd(den + j);
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(vn, _mm256_mul_pd(vkeep, vd), _CMP_GE_OQ));
    if (mask != 0) {
      for (int b = 0; b < 4; ++b) {
        if ((mask & (1 << b)) != 0) {
          hits[count++] = static_cast<std::uint32_t>(j + b);
        }
      }
    }
  }
  for (; j < n; ++j) {
    if (num[j] >= keep_lb * den[j]) {
      hits[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

#endif  // GNN4IP_HAVE_X86

// ---- NEON backend (aarch64) ----------------------------------------------

#if GNN4IP_HAVE_NEON

std::int32_t dot_i8_neon(const std::int8_t* a, const std::int8_t* b,
                         std::size_t dim) {
  int32x4_t acc = vdupq_n_s32(0);
  std::size_t k = 0;
  for (; k + 8 <= dim; k += 8) {
    const int16x8_t wa = vmovl_s8(vld1_s8(a + k));
    const int16x8_t wb = vmovl_s8(vld1_s8(b + k));
    // |q| ≤ 127 keeps every int16 product in range; vpadalq folds the
    // pairs into int32 lanes — exact, scalar-identical integers.
    acc = vpadalq_s16(acc, vmulq_s16(wa, wb));
  }
  std::int32_t sum = vaddvq_s32(acc);
  for (; k < dim; ++k) {
    sum += static_cast<std::int32_t>(a[k]) * static_cast<std::int32_t>(b[k]);
  }
  return sum;
}

void dot_i8_sweep_neon(const std::int8_t* q, const std::int8_t* rows,
                       std::size_t n, std::size_t dim, std::int32_t* out) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = dot_i8_neon(q, rows + j * dim, dim);
  }
}

std::size_t quant_screen_sweep_neon(const QuantSweepQuery& qc,
                                    const std::int8_t* q,
                                    const std::int8_t* rows, std::size_t dim,
                                    const QuantStatsSoa& stats, std::size_t n,
                                    double prune_max, std::int32_t* dots,
                                    double* num, double* den,
                                    std::uint32_t* hits) {
  // The margin arithmetic is bandwidth-light next to the int8 sweep, so
  // the scalar loop serves it (the compiler may pair it into 2-wide
  // float64x2).
  dot_i8_sweep_neon(q, rows, n, dim, dots);
  return quant_margin_sweep_scalar(qc, stats, dots, n, prune_max, num, den,
                                   hits);
}

#endif  // GNN4IP_HAVE_NEON

}  // namespace

const char* backend_name(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
      return "auto";
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
    case KernelBackend::kNeon:
      return "neon";
  }
  GNN4IP_ENSURE(false, "backend_name: unknown KernelBackend");
  return "";
}

KernelBackend parse_backend(std::string_view name) {
  if (name == "auto") return KernelBackend::kAuto;
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "avx2") return KernelBackend::kAvx2;
  if (name == "neon") return KernelBackend::kNeon;
  GNN4IP_ENSURE(false, "unknown kernel backend '" + std::string(name) +
                           "' (expected scalar|avx2|neon|auto)");
  return KernelBackend::kAuto;
}

bool backend_supported(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
#if GNN4IP_HAVE_X86
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case KernelBackend::kNeon:
#if GNN4IP_HAVE_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

KernelBackend detect_backend() {
  if (backend_supported(KernelBackend::kAvx2)) return KernelBackend::kAvx2;
  if (backend_supported(KernelBackend::kNeon)) return KernelBackend::kNeon;
  return KernelBackend::kScalar;
}

KernelBackend resolve_backend(KernelBackend requested) {
  if (requested != KernelBackend::kAuto) {
    GNN4IP_ENSURE(backend_supported(requested),
                  std::string("kernel backend '") + backend_name(requested) +
                      "' is not supported on this host");
    return requested;
  }
  // Re-read the environment on every resolve: tests flip GNN4IP_KERNEL
  // between calls, and getenv is far cheaper than anything a resolved
  // backend goes on to do.
  if (const char* env = std::getenv("GNN4IP_KERNEL")) {
    const KernelBackend from_env = parse_backend(env);
    if (from_env != KernelBackend::kAuto) {
      GNN4IP_ENSURE(backend_supported(from_env),
                    std::string("GNN4IP_KERNEL requests '") +
                        backend_name(from_env) +
                        "' but this host does not support it");
      return from_env;
    }
  }
  return detect_backend();
}

const KernelOps& kernel_ops(KernelBackend requested) {
  static const KernelOps scalar_ops = {KernelBackend::kScalar,
                                       &quant_screen_sweep_scalar,
                                       &quant_survivor_scan_scalar};
#if GNN4IP_HAVE_X86
  static const KernelOps avx2_ops = {KernelBackend::kAvx2,
                                     &quant_screen_sweep_avx2,
                                     &quant_survivor_scan_avx2};
#endif
#if GNN4IP_HAVE_NEON
  static const KernelOps neon_ops = {KernelBackend::kNeon,
                                     &quant_screen_sweep_neon,
                                     &quant_survivor_scan_scalar};
#endif
  switch (resolve_backend(requested)) {
    case KernelBackend::kAvx2:
#if GNN4IP_HAVE_X86
      return avx2_ops;
#else
      break;
#endif
    case KernelBackend::kNeon:
#if GNN4IP_HAVE_NEON
      return neon_ops;
#else
      break;
#endif
    case KernelBackend::kScalar:
      return scalar_ops;
    case KernelBackend::kAuto:
      break;  // resolve_backend never returns kAuto
  }
  GNN4IP_ENSURE(false, "kernel_ops: resolve_backend returned an unusable "
                       "backend (dispatch bug)");
  return scalar_ops;
}

}  // namespace gnn4ip::core
