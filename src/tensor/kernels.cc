#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) || defined(_M_X64)
#define SCENEREC_KERNELS_X86 1
#include <immintrin.h>
#endif

#include "common/telemetry.h"
#include "common/trace.h"

/// Kernel span: recorded only when the call runs at least
/// TraceOptions::kernel_floor_ns, so tiny GEMVs inside batched loops don't
/// flood the ring. Dot/Axpy stay uninstrumented (inner-loop primitives).
#define TRACE_KERNEL(kname, m_, n_)                                        \
  SCENEREC_TRACE_SPAN_F(kname, "kernel", ::scenerec::trace::Floor::kKernel, \
                        "m=%lld n=%lld", static_cast<long long>(m_),        \
                        static_cast<long long>(n_))

namespace scenerec {
namespace kernels {

namespace {

// Kernel call + FLOP accounting (docs/observability.md). Instrumented at the
// per-call level only: Dot/Axpy run inside these kernels' inner loops and
// stay untouched, so the cost per GEMM/GEMV is one enabled-flag branch and
// two thread-local stores. GemvRows counts one gemv per row (its rows ARE
// gemv calls, bitwise), plus its own batched-call counter. AddActDotRows
// counts 4d+1 FLOPs per row: the q + table add, the activation, the w2
// multiply-accumulate pair, and the output bias.
const telemetry::Counter t_gemm_calls =
    telemetry::RegisterCounter("kernels/gemm_calls");
const telemetry::Counter t_gemv_calls =
    telemetry::RegisterCounter("kernels/gemv_calls");
const telemetry::Counter t_gemv_rows_calls =
    telemetry::RegisterCounter("kernels/gemv_rows_calls");
const telemetry::Counter t_gemv_multi_calls =
    telemetry::RegisterCounter("kernels/gemv_multi_calls");
const telemetry::Counter t_add_act_dot_rows_calls =
    telemetry::RegisterCounter("kernels/add_act_dot_rows_calls");
const telemetry::Counter t_accum_calls =
    telemetry::RegisterCounter("kernels/backward_accum_calls");
const telemetry::Counter t_flops = telemetry::RegisterCounter("kernels/flops");

/// ActApply with the activation fixed at compile time, so per-element loops
/// (AddActDotRows) carry no switch. ActApply dispatches here too: one
/// definition of every formula keeps fused, composed and factorized paths
/// bitwise in agreement.
template <FusedAct kAct>
inline float ActApplyT(float x, float leaky_slope) {
  if constexpr (kAct == FusedAct::kSigmoid) {
    // Branch on sign for numerical stability at large |x| (same formula as
    // the standalone Sigmoid op, so fused and composed paths agree).
    if (x >= 0.0f) {
      const float z = std::exp(-x);
      return 1.0f / (1.0f + z);
    }
    const float z = std::exp(x);
    return z / (1.0f + z);
  } else if constexpr (kAct == FusedAct::kTanh) {
    return std::tanh(x);
  } else if constexpr (kAct == FusedAct::kRelu) {
    return x > 0.0f ? x : 0.0f;
  } else if constexpr (kAct == FusedAct::kLeakyRelu) {
    return x > 0.0f ? x : leaky_slope * x;
  } else {
    (void)leaky_slope;
    return x;
  }
}

}  // namespace

float ActApply(FusedAct act, float x, float leaky_slope) {
  switch (act) {
    case FusedAct::kNone:
      return ActApplyT<FusedAct::kNone>(x, leaky_slope);
    case FusedAct::kSigmoid:
      return ActApplyT<FusedAct::kSigmoid>(x, leaky_slope);
    case FusedAct::kTanh:
      return ActApplyT<FusedAct::kTanh>(x, leaky_slope);
    case FusedAct::kRelu:
      return ActApplyT<FusedAct::kRelu>(x, leaky_slope);
    case FusedAct::kLeakyRelu:
      return ActApplyT<FusedAct::kLeakyRelu>(x, leaky_slope);
  }
  return x;
}

float ActGradFromY(FusedAct act, float y, float leaky_slope) {
  switch (act) {
    case FusedAct::kNone:
      return 1.0f;
    case FusedAct::kSigmoid:
      return y * (1.0f - y);
    case FusedAct::kTanh:
      return 1.0f - y * y;
    case FusedAct::kRelu:
      // y > 0 iff x > 0, matching the forward's strict-inequality convention.
      return y > 0.0f ? 1.0f : 0.0f;
    case FusedAct::kLeakyRelu:
      return y > 0.0f ? 1.0f : leaky_slope;
  }
  return 1.0f;
}

namespace {

/// Width of the partial-accumulator bank in Dot. Eight floats span one AVX
/// register (or two SSE registers); the bank fully unrolls, so the compiler
/// keeps it in vector registers without needing to reassociate anything.
constexpr int64_t kLanes = 8;

}  // namespace

float Dot(const float* SCENEREC_RESTRICT a, const float* SCENEREC_RESTRICT b,
          int64_t n) {
  float acc[kLanes] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) acc[l] += a[i + l] * b[i + l];
  }
  // Fixed-shape horizontal reduction: the result depends only on n, never on
  // how the loop above was vectorized.
  float total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

void Axpy(float alpha, const float* SCENEREC_RESTRICT x,
          float* SCENEREC_RESTRICT y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Gemv(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
          const float* SCENEREC_RESTRICT x, float* SCENEREC_RESTRICT y) {
  TRACE_KERNEL("Gemv", m, n);
  t_gemv_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * n));
  for (int64_t i = 0; i < m; ++i) y[i] = Dot(w + i * n, x, n);
}

void GemvRows(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
              const float* SCENEREC_RESTRICT xs, int64_t rows,
              float* SCENEREC_RESTRICT ys) {
  TRACE_KERNEL("GemvRows", rows * m, n);
  t_gemv_rows_calls.Add(1);
  // Each row runs the identical Gemv path — bitwise equal to `rows`
  // standalone calls, which is what lets model code batch per-entity
  // forwards without changing results. (The inner Gemv also accounts the
  // per-row calls and FLOPs.)
  for (int64_t r = 0; r < rows; ++r) {
    Gemv(w, m, n, xs + r * n, ys + r * m);
  }
}

namespace {

#if defined(SCENEREC_KERNELS_X86)

/// Dot's horizontal reduction, verbatim: lanes [l0..l7] collapse as
/// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). Spelled out on stored lanes so
/// the tree shape cannot depend on the vector width used to accumulate.
inline float ReduceLanes(const float* SCENEREC_RESTRICT l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/// Four queries against one pass over W, SSE2. Each query keeps its own
/// 8-lane bank (two xmm); mul/add are per-lane IEEE ops, so every
/// (row, query) result is bitwise the standalone Dot.
void GemvMulti4Sse2(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
                    const float* SCENEREC_RESTRICT x0,
                    const float* SCENEREC_RESTRICT x1,
                    const float* SCENEREC_RESTRICT x2,
                    const float* SCENEREC_RESTRICT x3,
                    float* SCENEREC_RESTRICT y0, float* SCENEREC_RESTRICT y1,
                    float* SCENEREC_RESTRICT y2, float* SCENEREC_RESTRICT y3) {
  for (int64_t i = 0; i < m; ++i) {
    const float* SCENEREC_RESTRICT a = w + i * n;
    __m128 a0lo = _mm_setzero_ps(), a0hi = _mm_setzero_ps();
    __m128 a1lo = _mm_setzero_ps(), a1hi = _mm_setzero_ps();
    __m128 a2lo = _mm_setzero_ps(), a2hi = _mm_setzero_ps();
    __m128 a3lo = _mm_setzero_ps(), a3hi = _mm_setzero_ps();
    int64_t k = 0;
    for (; k + kLanes <= n; k += kLanes) {
      const __m128 rlo = _mm_loadu_ps(a + k);
      const __m128 rhi = _mm_loadu_ps(a + k + 4);
      a0lo = _mm_add_ps(a0lo, _mm_mul_ps(rlo, _mm_loadu_ps(x0 + k)));
      a0hi = _mm_add_ps(a0hi, _mm_mul_ps(rhi, _mm_loadu_ps(x0 + k + 4)));
      a1lo = _mm_add_ps(a1lo, _mm_mul_ps(rlo, _mm_loadu_ps(x1 + k)));
      a1hi = _mm_add_ps(a1hi, _mm_mul_ps(rhi, _mm_loadu_ps(x1 + k + 4)));
      a2lo = _mm_add_ps(a2lo, _mm_mul_ps(rlo, _mm_loadu_ps(x2 + k)));
      a2hi = _mm_add_ps(a2hi, _mm_mul_ps(rhi, _mm_loadu_ps(x2 + k + 4)));
      a3lo = _mm_add_ps(a3lo, _mm_mul_ps(rlo, _mm_loadu_ps(x3 + k)));
      a3hi = _mm_add_ps(a3hi, _mm_mul_ps(rhi, _mm_loadu_ps(x3 + k + 4)));
    }
    alignas(16) float lanes[kLanes];
    _mm_store_ps(lanes, a0lo);
    _mm_store_ps(lanes + 4, a0hi);
    float t0 = ReduceLanes(lanes);
    _mm_store_ps(lanes, a1lo);
    _mm_store_ps(lanes + 4, a1hi);
    float t1 = ReduceLanes(lanes);
    _mm_store_ps(lanes, a2lo);
    _mm_store_ps(lanes + 4, a2hi);
    float t2 = ReduceLanes(lanes);
    _mm_store_ps(lanes, a3lo);
    _mm_store_ps(lanes + 4, a3hi);
    float t3 = ReduceLanes(lanes);
    for (; k < n; ++k) {
      t0 += a[k] * x0[k];
      t1 += a[k] * x1[k];
      t2 += a[k] * x2[k];
      t3 += a[k] * x3[k];
    }
    y0[i] = t0;
    y1[i] = t1;
    y2[i] = t2;
    y3[i] = t3;
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define SCENEREC_KERNELS_AVX2_DISPATCH 1

/// Reduces one ymm accumulator bank through EXACTLY the Dot tree
/// ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)): every hadd lane is a single IEEE
/// add of adjacent elements, so the rounding sequence is identical to
/// ReduceLanes on the stored bank — just without the store/reload.
__attribute__((target("avx2"))) inline float ReduceYmm(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);    // l0..l3
  const __m128 hi = _mm256_extractf128_ps(v, 1);  // l4..l7
  const __m128 h1 = _mm_hadd_ps(lo, hi);  // l0+l1, l2+l3, l4+l5, l6+l7
  const __m128 h2 = _mm_hadd_ps(h1, h1);  // (l0+l1)+(l2+l3), (l4+l5)+(l6+l7)
  return _mm_cvtss_f32(_mm_add_ss(h2, _mm_shuffle_ps(h2, h2, 1)));
}

/// AVX2 twin of GemvMulti4Sse2 for any group of Q <= 8 queries: one ymm
/// bank per query, so Q banks plus the row vector fit the sixteen-register
/// AVX2 file and each row load is amortized over all Q queries. `xs` packs
/// the queries contiguously (query q at xs + q*n), `ys` the results
/// (ys[q*m + i]). vmulps/vaddps round per lane exactly like mulps/addps
/// (and like the scalar formula), and the reduction runs the same tree, so
/// results stay bitwise equal to Dot. Deliberately no FMA — "avx2" alone
/// never emits contractions.
template <int Q>
__attribute__((target("avx2"))) void GemvMultiAvx2(
    const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
    const float* SCENEREC_RESTRICT xs, float* SCENEREC_RESTRICT ys) {
  static_assert(Q >= 1 && Q <= 8, "one ymm bank per query");
  for (int64_t i = 0; i < m; ++i) {
    const float* SCENEREC_RESTRICT a = w + i * n;
    __m256 acc[Q];
    for (int q = 0; q < Q; ++q) acc[q] = _mm256_setzero_ps();
    int64_t k = 0;
    for (; k + kLanes <= n; k += kLanes) {
      const __m256 r = _mm256_loadu_ps(a + k);
      for (int q = 0; q < Q; ++q) {
        acc[q] = _mm256_add_ps(
            acc[q], _mm256_mul_ps(r, _mm256_loadu_ps(xs + q * n + k)));
      }
    }
    float t[Q];
    for (int q = 0; q < Q; ++q) t[q] = ReduceYmm(acc[q]);
    for (; k < n; ++k) {
      const float av = a[k];
      for (int q = 0; q < Q; ++q) t[q] += av * xs[q * n + k];
    }
    for (int q = 0; q < Q; ++q) ys[q * m + i] = t[q];
  }
}

/// Runs the nq < 8 queries left after the full groups of eight as ONE
/// bank of that width, so no batch size falls back to per-query Dot.
__attribute__((target("avx2"))) void GemvMultiAvx2Tail(
    const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
    const float* SCENEREC_RESTRICT xs, int64_t nq,
    float* SCENEREC_RESTRICT ys) {
  switch (nq) {
    case 1: return GemvMultiAvx2<1>(w, m, n, xs, ys);
    case 2: return GemvMultiAvx2<2>(w, m, n, xs, ys);
    case 3: return GemvMultiAvx2<3>(w, m, n, xs, ys);
    case 4: return GemvMultiAvx2<4>(w, m, n, xs, ys);
    case 5: return GemvMultiAvx2<5>(w, m, n, xs, ys);
    case 6: return GemvMultiAvx2<6>(w, m, n, xs, ys);
    case 7: return GemvMultiAvx2<7>(w, m, n, xs, ys);
    default: return;
  }
}
#endif  // __GNUC__ || __clang__

#endif  // SCENEREC_KERNELS_X86

}  // namespace

void GemvMulti(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
               const float* SCENEREC_RESTRICT xs, int64_t nq,
               float* SCENEREC_RESTRICT ys) {
  TRACE_KERNEL("GemvMulti", m * nq, n);
  t_gemv_multi_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * n * nq));
  int64_t q = 0;
#if defined(SCENEREC_KERNELS_AVX2_DISPATCH)
  if (__builtin_cpu_supports("avx2")) {
    for (; q + 8 <= nq; q += 8) {
      GemvMultiAvx2<8>(w, m, n, xs + q * n, ys + q * m);
    }
    GemvMultiAvx2Tail(w, m, n, xs + q * n, nq - q, ys + q * m);
    return;
  }
#endif
#if defined(SCENEREC_KERNELS_X86)
  for (; q + 4 <= nq; q += 4) {
    const float* x0 = xs + q * n;
    GemvMulti4Sse2(w, m, n, x0, x0 + n, x0 + 2 * n, x0 + 3 * n, ys + q * m,
                   ys + (q + 1) * m, ys + (q + 2) * m, ys + (q + 3) * m);
  }
#endif  // SCENEREC_KERNELS_X86
  // Remainder queries without AVX2 (and every query on non-x86 targets):
  // the standalone Gemv path — the definition the banks are bitwise against.
  for (; q < nq; ++q) {
    const float* x = xs + q * n;
    float* y = ys + q * m;
    for (int64_t i = 0; i < m; ++i) y[i] = Dot(w + i * n, x, n);
  }
}

namespace {

#if defined(SCENEREC_KERNELS_X86)
/// ActApplyT on four lanes for the piecewise-linear activations. Compare,
/// select and multiply are per-lane IEEE ops, so each lane is bitwise the
/// scalar formula (NaN included: it fails x > 0 in both).
template <FusedAct kAct>
inline __m128 ActSse2(__m128 x, __m128 slope) {
  if constexpr (kAct == FusedAct::kRelu) {
    return _mm_and_ps(_mm_cmpgt_ps(x, _mm_setzero_ps()), x);
  } else if constexpr (kAct == FusedAct::kLeakyRelu) {
    const __m128 positive = _mm_cmpgt_ps(x, _mm_setzero_ps());
    return _mm_or_ps(_mm_and_ps(positive, x),
                     _mm_andnot_ps(positive, _mm_mul_ps(slope, x)));
  } else {
    (void)slope;
    return x;
  }
}
#endif  // SCENEREC_KERNELS_X86

/// Dot's lane bank over h = act(q + t) for the first `banked` elements (a
/// multiple of kLanes), collapsed by Dot's reduction tree. GCC will not
/// if-convert LeakyReLU's sign test around a multiply that may trap, so the
/// scalar bank branches per element (10x slower on random signs) and never
/// vectorizes; x86 builds therefore run the piecewise-linear activations
/// as SSE2 (two xmm per bank, mul then add, never FMA). Sigmoid and tanh
/// stay scalar, where their libm calls dominate anyway.
template <FusedAct kAct>
float ActDotBank(const float* SCENEREC_RESTRICT q,
                 const float* SCENEREC_RESTRICT t,
                 const float* SCENEREC_RESTRICT w2, int64_t banked,
                 float leaky_slope) {
#if defined(SCENEREC_KERNELS_X86)
  if constexpr (kAct != FusedAct::kSigmoid && kAct != FusedAct::kTanh) {
    const __m128 slope = _mm_set1_ps(leaky_slope);
    __m128 lo = _mm_setzero_ps();
    __m128 hi = _mm_setzero_ps();
    for (int64_t j = 0; j < banked; j += kLanes) {
      const __m128 xlo = _mm_add_ps(_mm_loadu_ps(q + j), _mm_loadu_ps(t + j));
      const __m128 xhi =
          _mm_add_ps(_mm_loadu_ps(q + j + 4), _mm_loadu_ps(t + j + 4));
      lo = _mm_add_ps(
          lo, _mm_mul_ps(_mm_loadu_ps(w2 + j), ActSse2<kAct>(xlo, slope)));
      hi = _mm_add_ps(
          hi, _mm_mul_ps(_mm_loadu_ps(w2 + j + 4), ActSse2<kAct>(xhi, slope)));
    }
    alignas(16) float lanes[kLanes];
    _mm_store_ps(lanes, lo);
    _mm_store_ps(lanes + 4, hi);
    return ReduceLanes(lanes);
  }
#endif  // SCENEREC_KERNELS_X86
  float acc[kLanes] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  for (int64_t j = 0; j < banked; j += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) {
      acc[l] += w2[j + l] * ActApplyT<kAct>(q[j + l] + t[j + l], leaky_slope);
    }
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

template <FusedAct kAct>
void AddActDotRowsImpl(const float* SCENEREC_RESTRICT q,
                       const float* SCENEREC_RESTRICT table,
                       const int64_t* SCENEREC_RESTRICT idx, int64_t rows,
                       int64_t d, const float* SCENEREC_RESTRICT w2, float b2,
                       float leaky_slope, float* SCENEREC_RESTRICT out) {
  const int64_t banked = d - d % kLanes;
  for (int64_t r = 0; r < rows; ++r) {
    const float* SCENEREC_RESTRICT t = table + idx[r] * d;
    float total = ActDotBank<kAct>(q, t, w2, banked, leaky_slope);
    for (int64_t j = banked; j < d; ++j) {
      total += w2[j] * ActApplyT<kAct>(q[j] + t[j], leaky_slope);
    }
    out[r] = total + b2;
  }
}

}  // namespace

void AddActDotRows(const float* SCENEREC_RESTRICT q,
                   const float* SCENEREC_RESTRICT table,
                   const int64_t* SCENEREC_RESTRICT idx, int64_t rows,
                   int64_t d, const float* SCENEREC_RESTRICT w2, float b2,
                   FusedAct act, float leaky_slope,
                   float* SCENEREC_RESTRICT out) {
  TRACE_KERNEL("AddActDotRows", rows, d);
  t_add_act_dot_rows_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>((4 * d + 1) * rows));
  switch (act) {
    case FusedAct::kNone:
      return AddActDotRowsImpl<FusedAct::kNone>(q, table, idx, rows, d, w2,
                                                b2, leaky_slope, out);
    case FusedAct::kSigmoid:
      return AddActDotRowsImpl<FusedAct::kSigmoid>(q, table, idx, rows, d, w2,
                                                   b2, leaky_slope, out);
    case FusedAct::kTanh:
      return AddActDotRowsImpl<FusedAct::kTanh>(q, table, idx, rows, d, w2,
                                                b2, leaky_slope, out);
    case FusedAct::kRelu:
      return AddActDotRowsImpl<FusedAct::kRelu>(q, table, idx, rows, d, w2,
                                                b2, leaky_slope, out);
    case FusedAct::kLeakyRelu:
      return AddActDotRowsImpl<FusedAct::kLeakyRelu>(q, table, idx, rows, d,
                                                     w2, b2, leaky_slope, out);
  }
}

void GemvTAccum(const float* SCENEREC_RESTRICT w, int64_t m, int64_t n,
                const float* SCENEREC_RESTRICT g,
                float* SCENEREC_RESTRICT dx) {
  t_accum_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * n));
  for (int64_t i = 0; i < m; ++i) {
    const float gi = g[i];
    if (gi == 0.0f) continue;
    Axpy(gi, w + i * n, dx, n);
  }
}

void GerAccum(const float* SCENEREC_RESTRICT g, const float* SCENEREC_RESTRICT x,
              int64_t m, int64_t n, float* SCENEREC_RESTRICT dw) {
  t_accum_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * n));
  for (int64_t i = 0; i < m; ++i) {
    const float gi = g[i];
    if (gi == 0.0f) continue;
    Axpy(gi, x, dw + i * n, n);
  }
}

void Gemm(const float* SCENEREC_RESTRICT a, const float* SCENEREC_RESTRICT b,
          float* SCENEREC_RESTRICT c, int64_t m, int64_t k, int64_t n) {
  TRACE_KERNEL("Gemm", m, n);
  t_gemm_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * k * n));
  std::fill(c, c + m * n, 0.0f);
  // Axpy-form i-k-j loop: streams rows of B, keeps 4 rows of C in registers.
  // Blocking over k bounds the B panel touched per C tile; because C[i, j]
  // still accumulates p in strictly ascending order, the result is
  // independent of both the tile shape and m (batch-size invariant).
  constexpr int64_t kKc = 256;
  for (int64_t p0 = 0; p0 < k; p0 += kKc) {
    const int64_t p1 = std::min(p0 + kKc, k);
    int64_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* SCENEREC_RESTRICT a0 = a + (i + 0) * k;
      const float* SCENEREC_RESTRICT a1 = a + (i + 1) * k;
      const float* SCENEREC_RESTRICT a2 = a + (i + 2) * k;
      const float* SCENEREC_RESTRICT a3 = a + (i + 3) * k;
      float* SCENEREC_RESTRICT c0 = c + (i + 0) * n;
      float* SCENEREC_RESTRICT c1 = c + (i + 1) * n;
      float* SCENEREC_RESTRICT c2 = c + (i + 2) * n;
      float* SCENEREC_RESTRICT c3 = c + (i + 3) * n;
      for (int64_t p = p0; p < p1; ++p) {
        const float* SCENEREC_RESTRICT br = b + p * n;
        const float av0 = a0[p];
        const float av1 = a1[p];
        const float av2 = a2[p];
        const float av3 = a3[p];
        for (int64_t j = 0; j < n; ++j) {
          const float bv = br[j];
          c0[j] += av0 * bv;
          c1[j] += av1 * bv;
          c2[j] += av2 * bv;
          c3[j] += av3 * bv;
        }
      }
    }
    for (; i < m; ++i) {
      const float* SCENEREC_RESTRICT ai = a + i * k;
      float* SCENEREC_RESTRICT ci = c + i * n;
      for (int64_t p = p0; p < p1; ++p) {
        const float av = ai[p];
        const float* SCENEREC_RESTRICT br = b + p * n;
        for (int64_t j = 0; j < n; ++j) ci[j] += av * br[j];
      }
    }
  }
}

void GemmNTAccum(const float* SCENEREC_RESTRICT g,
                 const float* SCENEREC_RESTRICT b, float* SCENEREC_RESTRICT da,
                 int64_t m, int64_t n, int64_t k) {
  TRACE_KERNEL("GemmNTAccum", m, k);
  t_accum_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * n * k));
  for (int64_t i = 0; i < m; ++i) {
    const float* SCENEREC_RESTRICT grow = g + i * n;
    float* SCENEREC_RESTRICT darow = da + i * k;
    for (int64_t p = 0; p < k; ++p) {
      darow[p] += Dot(grow, b + p * n, n);
    }
  }
}

void GemmTNAccum(const float* SCENEREC_RESTRICT a,
                 const float* SCENEREC_RESTRICT g, float* SCENEREC_RESTRICT db,
                 int64_t m, int64_t k, int64_t n) {
  TRACE_KERNEL("GemmTNAccum", k, n);
  t_accum_calls.Add(1);
  t_flops.Add(static_cast<uint64_t>(2 * m * k * n));
  for (int64_t p = 0; p < k; ++p) {
    float* SCENEREC_RESTRICT dbrow = db + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = a[i * k + p];
      if (av == 0.0f) continue;
      const float* SCENEREC_RESTRICT grow = g + i * n;
      for (int64_t j = 0; j < n; ++j) dbrow[j] += av * grow[j];
    }
  }
}

int32_t DotQ8(const int8_t* SCENEREC_RESTRICT q,
              const uint8_t* SCENEREC_RESTRICT codes, int64_t n) {
  // Widen both sides to int32 up front; the compiler narrows back to the
  // int16-product / int32-accumulate vector idiom on its own, and integer
  // addition is exact so no partial-accumulator dance is needed.
  int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<int32_t>(q[i + 0]) * static_cast<int32_t>(codes[i + 0]);
    acc1 += static_cast<int32_t>(q[i + 1]) * static_cast<int32_t>(codes[i + 1]);
    acc2 += static_cast<int32_t>(q[i + 2]) * static_cast<int32_t>(codes[i + 2]);
    acc3 += static_cast<int32_t>(q[i + 3]) * static_cast<int32_t>(codes[i + 3]);
  }
  int32_t total = (acc0 + acc1) + (acc2 + acc3);
  for (; i < n; ++i) {
    total += static_cast<int32_t>(q[i]) * static_cast<int32_t>(codes[i]);
  }
  return total;
}

void GemvQ8(const uint8_t* SCENEREC_RESTRICT codes, int64_t rows, int64_t n,
            const int8_t* SCENEREC_RESTRICT q, int32_t* SCENEREC_RESTRICT out) {
  TRACE_KERNEL("GemvQ8", rows, n);
  for (int64_t r = 0; r < rows; ++r) out[r] = DotQ8(q, codes + r * n, n);
}

// -- Scalar references -------------------------------------------------------
//
// Naive loops with the most obvious accumulation order. The equivalence
// tests allow a small tolerance because the vectorized kernels reduce in a
// different (but fixed) order.

float DotRef(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void AxpyRef(float alpha, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void GemvRef(const float* w, int64_t m, int64_t n, const float* x, float* y) {
  for (int64_t i = 0; i < m; ++i) y[i] = DotRef(w + i * n, x, n);
}

void GemvMultiRef(const float* w, int64_t m, int64_t n, const float* xs,
                  int64_t nq, float* ys) {
  for (int64_t q = 0; q < nq; ++q) GemvRef(w, m, n, xs + q * n, ys + q * m);
}

void AddActDotRowsRef(const float* q, const float* table, const int64_t* idx,
                      int64_t rows, int64_t d, const float* w2, float b2,
                      FusedAct act, float leaky_slope, float* out) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* t = table + idx[r] * d;
    const int64_t banked = d - d % 8;
    float acc[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    for (int64_t j = 0; j < banked; ++j) {
      acc[j % 8] += w2[j] * ActApply(act, q[j] + t[j], leaky_slope);
    }
    float total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
                  ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (int64_t j = banked; j < d; ++j) {
      total += w2[j] * ActApply(act, q[j] + t[j], leaky_slope);
    }
    out[r] = total + b2;
  }
}

void GemvTAccumRef(const float* w, int64_t m, int64_t n, const float* g,
                   float* dx) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) dx[j] += g[i] * w[i * n + j];
  }
}

void GerAccumRef(const float* g, const float* x, int64_t m, int64_t n,
                 float* dw) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) dw[i * n + j] += g[i] * x[j];
  }
}

void GemmRef(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}

void GemmNTAccumRef(const float* g, const float* b, float* da, int64_t m,
                    int64_t n, int64_t k) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      da[i * k + p] += DotRef(g + i * n, b + p * n, n);
    }
  }
}

void GemmTNAccumRef(const float* a, const float* g, float* db, int64_t m,
                    int64_t k, int64_t n) {
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        db[p * n + j] += a[i * k + p] * g[i * n + j];
      }
    }
  }
}

int32_t DotQ8Ref(const int8_t* q, const uint8_t* codes, int64_t n) {
  int32_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(q[i]) * static_cast<int32_t>(codes[i]);
  }
  return acc;
}

void GemvQ8Ref(const uint8_t* codes, int64_t rows, int64_t n, const int8_t* q,
               int32_t* out) {
  for (int64_t r = 0; r < rows; ++r) out[r] = DotQ8Ref(q, codes + r * n, n);
}

}  // namespace kernels
}  // namespace scenerec
