// AVX2 + FMA microkernel table.
//
// Compiled with -mavx2 -mfma -ffp-contract=off when the XDMODML_SIMD
// CMake option is ON and the compiler supports those flags
// (XDMODML_HAVE_AVX2 is defined for this file in that case); otherwise
// the table is absent and `avx2_ops()` returns nullptr so dispatch can
// never reach this ISA.  Nothing here is called unless cpuid reported
// AVX2+FMA at startup (see simd.cpp), so the intrinsics are safe to
// contain.
//
// With contraction off, a fused multiply-add is always an explicit
// `_mm256_fmadd_pd`, and a `_mm256_mul_pd` feeding a `_mm256_add_pd`
// always rounds twice.  The polynomial base depends on that to equal the
// scalar table's γ·dot + c0, and the reduce to equal
// SvmInferencePlan::decision_value's scalar `f += coef * k` loop bit for
// bit; under GCC's default contraction each pair becomes one fmadd and
// the lanes drift from the scalar result by an ulp.
#include "util/simd.hpp"
#include "util/simd_ops.hpp"

#if defined(XDMODML_HAVE_AVX2)

#include <immintrin.h>

#include <cstring>
#include <limits>

namespace xdmodml::simd::detail {

namespace {

// ---- vectorized exp -------------------------------------------------
//
// Cephes-style exp for 4 doubles: range-reduce x = n·ln2 + r with a
// Cody–Waite two-term ln2, evaluate exp(r) on |r| ≤ ln2/2 as the Padé
// form 1 + 2·r·P(r²)/(Q(r²) − r·P(r²)), and scale by 2ⁿ through the
// exponent bits.  Accuracy and edge behaviour are documented in
// simd.hpp (a few ULP in the primary range; underflow band flushes to
// exactly +0, x > 709 saturates to +inf, NaN propagates).

constexpr double kExpMaxArg = 709.0;
// log(DBL_MIN) — below this exp() is subnormal; this path returns +0.
constexpr double kExpMinArg = -708.396418532264106224;

inline __m256d exp4(__m256d x) {
  const __m256d log2e = _mm256_set1_pd(1.4426950408889634073599);
  // ln2 split so n·c1 is exact for |n| < 2^20.
  const __m256d c1 = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d c2 = _mm256_set1_pd(1.42860682030941723212e-6);
  const __m256d p0 = _mm256_set1_pd(1.26177193074810590878e-4);
  const __m256d p1 = _mm256_set1_pd(3.02994407707441961300e-2);
  const __m256d p2 = _mm256_set1_pd(9.99999999999999999910e-1);
  const __m256d q0 = _mm256_set1_pd(3.00198505138664455042e-6);
  const __m256d q1 = _mm256_set1_pd(2.52448340349684104192e-3);
  const __m256d q2 = _mm256_set1_pd(2.27265548208155028766e-1);
  const __m256d q3 = _mm256_set1_pd(2.00000000000000000005e0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);

  // n = round(x / ln2); r = x − n·ln2 in two exact-ish steps.
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, c1, x);
  r = _mm256_fnmadd_pd(n, c2, r);

  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d px = _mm256_fmadd_pd(p0, r2, p1);
  px = _mm256_fmadd_pd(px, r2, p2);
  px = _mm256_mul_pd(px, r);
  __m256d qx = _mm256_fmadd_pd(q0, r2, q1);
  qx = _mm256_fmadd_pd(qx, r2, q2);
  qx = _mm256_fmadd_pd(qx, r2, q3);
  const __m256d er = _mm256_fmadd_pd(
      two, _mm256_div_pd(px, _mm256_sub_pd(qx, px)), one);

  // 2ⁿ via the exponent field: for x in [kExpMinArg, kExpMaxArg] n is in
  // [−1022, 1023], so n + 1023 is a valid biased exponent and the int32
  // intermediate cannot overflow.  Out-of-range lanes produce garbage
  // here and are overwritten by the blends below.
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i pow2 =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  __m256d result = _mm256_mul_pd(er, _mm256_castsi256_pd(pow2));

  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d over =
      _mm256_cmp_pd(x, _mm256_set1_pd(kExpMaxArg), _CMP_GT_OQ);
  const __m256d under =
      _mm256_cmp_pd(x, _mm256_set1_pd(kExpMinArg), _CMP_LT_OQ);
  const __m256d is_nan = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
  result = _mm256_blendv_pd(result, inf, over);
  result = _mm256_blendv_pd(result, _mm256_setzero_pd(), under);
  result = _mm256_blendv_pd(result, x, is_nan);  // keep the NaN payload
  return result;
}

// Applies exp4 to a tail of 1–3 values through a padded register so
// remainder lanes go through exactly the same math as full blocks.
inline void exp4_partial(double* x, std::size_t count) {
  alignas(32) double tmp[4] = {0.0, 0.0, 0.0, 0.0};
  std::memcpy(tmp, x, count * sizeof(double));
  _mm256_store_pd(tmp, exp4(_mm256_load_pd(tmp)));
  std::memcpy(x, tmp, count * sizeof(double));
}

inline double hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

double squared_norm_avx2(const double* x, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d v0 = _mm256_loadu_pd(x + i);
    const __m256d v1 = _mm256_loadu_pd(x + i + 4);
    acc0 = _mm256_fmadd_pd(v0, v0, acc0);
    acc1 = _mm256_fmadd_pd(v1, v1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d v = _mm256_loadu_pd(x + i);
    acc0 = _mm256_fmadd_pd(v, v, acc0);
    i += 4;
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += x[i] * x[i];
  return s;
}

void exp_inplace_avx2(double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, exp4(_mm256_loadu_pd(x + i)));
  }
  if (i < n) exp4_partial(x + i, n - i);
}

// Each (query, row) element is one fmadd chain over the features from
// zero, then the lane-wise transform below.  The row entry point puts
// rows in lanes (broadcast query feature × panel column), the tile puts
// queries in lanes (broadcast panel element × query column); fma(a, b, c)
// equals fma(b, a, c) and x_sq + sq equals sq + x_sq, so both produce the
// same bits per element.

template <RowKernel::Kind K>
inline __m256d transform4(__m256d dot, __m256d x_sq, __m256d sq,
                          const RowKernel& kernel) {
  if constexpr (K == RowKernel::Kind::kRbf) {
    // Lane-wise clamped_sq_dist, then exp(−γ·d²).
    __m256d d2 = _mm256_fnmadd_pd(_mm256_set1_pd(2.0), dot,
                                  _mm256_add_pd(x_sq, sq));
    d2 = _mm256_max_pd(_mm256_setzero_pd(), d2);
    return exp4(_mm256_mul_pd(_mm256_set1_pd(-kernel.gamma), d2));
  } else if constexpr (K == RowKernel::Kind::kPolyPowi) {
    // Two roundings, as the scalar table's γ·dot + c0.
    const __m256d base = _mm256_add_pd(
        _mm256_mul_pd(_mm256_set1_pd(kernel.gamma), dot),
        _mm256_set1_pd(kernel.coef0));
    __m256d result = _mm256_set1_pd(1.0);
    __m256d term = base;
    for (std::uint64_t e = kernel.degree; e > 0; e >>= 1u) {
      if (e & 1u) result = _mm256_mul_pd(result, term);
      term = _mm256_mul_pd(term, term);
    }
    return result;
  } else {
    (void)x_sq;
    (void)sq;
    (void)kernel;
    return dot;
  }
}

// P consecutive panels for one query, rows in lanes.  One panel is only
// two fmadd chains, which wait on FMA latency; four panels keep eight in
// flight.
template <std::size_t P, RowKernel::Kind K>
inline void row_panels(const double* x, __m256d x_sq, std::size_t d,
                       const double* panels, const double* sq_norms,
                       const RowKernel& kernel, double* out) {
  const std::size_t stride = d * kPanelRows;
  // The fixed-size loops are unrolled in full so the accumulators stay
  // in registers instead of a stack array.
  __m256d acc[2 * P];
#pragma GCC unroll 8
  for (auto& a : acc) a = _mm256_setzero_pd();
  for (std::size_t f = 0; f < d; ++f) {
    const __m256d xf = _mm256_broadcast_sd(x + f);
#pragma GCC unroll 4
    for (std::size_t p = 0; p < P; ++p) {
      const double* col = panels + p * stride + f * kPanelRows;
      acc[2 * p] = _mm256_fmadd_pd(xf, _mm256_loadu_pd(col), acc[2 * p]);
      acc[2 * p + 1] =
          _mm256_fmadd_pd(xf, _mm256_loadu_pd(col + 4), acc[2 * p + 1]);
    }
  }
#pragma GCC unroll 8
  for (std::size_t h = 0; h < 2 * P; ++h) {
    _mm256_storeu_pd(out + 4 * h,
                     transform4<K>(acc[h], x_sq,
                                   _mm256_loadu_pd(sq_norms + 4 * h), kernel));
  }
}

template <RowKernel::Kind K>
void kernel_row_panels_impl(const double* x, double x_sq, std::size_t d,
                            const double* panels, const double* sq_norms,
                            std::size_t n_rows, const RowKernel& kernel,
                            double* out) {
  const __m256d vx_sq = _mm256_set1_pd(x_sq);
  const std::size_t stride = d * kPanelRows;
  const std::size_t full = n_rows / kPanelRows;
  std::size_t p = 0;
  for (; p + 4 <= full; p += 4) {
    row_panels<4, K>(x, vx_sq, d, panels + p * stride,
                     sq_norms + p * kPanelRows, kernel, out + p * kPanelRows);
  }
  for (; p < full; ++p) {
    row_panels<1, K>(x, vx_sq, d, panels + p * stride,
                     sq_norms + p * kPanelRows, kernel, out + p * kPanelRows);
  }
  if (const std::size_t rest = n_rows - full * kPanelRows; rest > 0) {
    // The padded last panel goes through scratch: `out` ends at n_rows.
    alignas(32) double tmp[kPanelRows];
    row_panels<1, K>(x, vx_sq, d, panels + full * stride,
                     sq_norms + full * kPanelRows, kernel, tmp);
    std::memcpy(out + full * kPanelRows, tmp, rest * sizeof(double));
  }
}

// Eight queries (two lane vectors) × four panel rows per pass: eight
// fmadd chains from six loads per feature.
template <RowKernel::Kind K>
void kernel_tile_impl(const double* queries_t, const double* x_sq,
                      std::size_t d, const double* panels,
                      const double* sq_norms, std::size_t n_rows,
                      const RowKernel& kernel, double* out) {
  static_assert(kTileQueries == 8 && kPanelRows % 4 == 0);
  const __m256d x_sq_lo = _mm256_loadu_pd(x_sq);
  const __m256d x_sq_hi = _mm256_loadu_pd(x_sq + 4);
  for (std::size_t j0 = 0; j0 < panel_rows(n_rows); j0 += 4) {
    const double* panel = panels + (j0 / kPanelRows) * d * kPanelRows;
    const std::size_t r0 = j0 % kPanelRows;
    // Fixed-size loops unrolled in full, as in row_panels.
    __m256d lo[4];
    __m256d hi[4];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      lo[r] = _mm256_setzero_pd();
      hi[r] = _mm256_setzero_pd();
    }
    for (std::size_t f = 0; f < d; ++f) {
      const __m256d q_lo = _mm256_loadu_pd(queries_t + f * kTileQueries);
      const __m256d q_hi = _mm256_loadu_pd(queries_t + f * kTileQueries + 4);
      const double* col = panel + f * kPanelRows + r0;
#pragma GCC unroll 4
      for (std::size_t r = 0; r < 4; ++r) {
        const __m256d v = _mm256_broadcast_sd(col + r);
        lo[r] = _mm256_fmadd_pd(v, q_lo, lo[r]);
        hi[r] = _mm256_fmadd_pd(v, q_hi, hi[r]);
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      const std::size_t j = j0 + r;
      const __m256d sq = _mm256_broadcast_sd(sq_norms + j);
      _mm256_storeu_pd(out + j * kTileQueries,
                       transform4<K>(lo[r], x_sq_lo, sq, kernel));
      _mm256_storeu_pd(out + j * kTileQueries + 4,
                       transform4<K>(hi[r], x_sq_hi, sq, kernel));
    }
  }
}

void kernel_row_panels_avx2(const double* x, double x_sq, std::size_t d,
                            const double* panels, const double* sq_norms,
                            std::size_t n_rows, const RowKernel& kernel,
                            double* out) {
  using Kind = RowKernel::Kind;
  switch (kernel.kind) {
    case Kind::kDot:
      return kernel_row_panels_impl<Kind::kDot>(x, x_sq, d, panels, sq_norms,
                                                n_rows, kernel, out);
    case Kind::kRbf:
      return kernel_row_panels_impl<Kind::kRbf>(x, x_sq, d, panels, sq_norms,
                                                n_rows, kernel, out);
    case Kind::kPolyPowi:
      return kernel_row_panels_impl<Kind::kPolyPowi>(
          x, x_sq, d, panels, sq_norms, n_rows, kernel, out);
  }
}

void kernel_tile_avx2(const double* queries_t, const double* x_sq,
                      std::size_t d, const double* panels,
                      const double* sq_norms, std::size_t n_rows,
                      const RowKernel& kernel, double* out) {
  using Kind = RowKernel::Kind;
  switch (kernel.kind) {
    case Kind::kDot:
      return kernel_tile_impl<Kind::kDot>(queries_t, x_sq, d, panels,
                                          sq_norms, n_rows, kernel, out);
    case Kind::kRbf:
      return kernel_tile_impl<Kind::kRbf>(queries_t, x_sq, d, panels,
                                          sq_norms, n_rows, kernel, out);
    case Kind::kPolyPowi:
      return kernel_tile_impl<Kind::kPolyPowi>(queries_t, x_sq, d, panels,
                                               sq_norms, n_rows, kernel, out);
  }
}

void ovo_reduce_tile_avx2(const double* block, const OvoMachine* machines,
                          std::size_t count, double* f) {
  static_assert(kTileQueries == 8);
  // One machine is one add chain per lane vector, bound by add latency;
  // two machines advance together so four chains are in flight.  Each
  // machine still sums its own products in s order.
  const auto step = [block](const OvoMachine& m, std::size_t s, __m256d& lo,
                            __m256d& hi) {
    const __m256d c = _mm256_broadcast_sd(m.coef + s);
    const double* k = block + static_cast<std::size_t>(m.idx[s]) * kTileQueries;
    // Multiply, round, add: never an fmadd (see the top of this file).
    lo = _mm256_add_pd(lo, _mm256_mul_pd(c, _mm256_loadu_pd(k)));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(c, _mm256_loadu_pd(k + 4)));
  };
  std::size_t m = 0;
  for (; m + 2 <= count; m += 2) {
    const OvoMachine& a = machines[m];
    const OvoMachine& b = machines[m + 1];
    __m256d a_lo = _mm256_set1_pd(-a.rho);
    __m256d a_hi = a_lo;
    __m256d b_lo = _mm256_set1_pd(-b.rho);
    __m256d b_hi = b_lo;
    const std::size_t both = a.n < b.n ? a.n : b.n;
    std::size_t s = 0;
    for (; s < both; ++s) {
      step(a, s, a_lo, a_hi);
      step(b, s, b_lo, b_hi);
    }
    for (std::size_t t = s; t < a.n; ++t) step(a, t, a_lo, a_hi);
    for (std::size_t t = s; t < b.n; ++t) step(b, t, b_lo, b_hi);
    _mm256_storeu_pd(f + m * kTileQueries, a_lo);
    _mm256_storeu_pd(f + m * kTileQueries + 4, a_hi);
    _mm256_storeu_pd(f + (m + 1) * kTileQueries, b_lo);
    _mm256_storeu_pd(f + (m + 1) * kTileQueries + 4, b_hi);
  }
  if (m < count) {
    const OvoMachine& a = machines[m];
    __m256d lo = _mm256_set1_pd(-a.rho);
    __m256d hi = lo;
    for (std::size_t s = 0; s < a.n; ++s) step(a, s, lo, hi);
    _mm256_storeu_pd(f + m * kTileQueries, lo);
    _mm256_storeu_pd(f + m * kTileQueries + 4, hi);
  }
}

}  // namespace

const Ops* avx2_ops() {
  static constexpr Ops ops{squared_norm_avx2, exp_inplace_avx2,
                           kernel_row_panels_avx2, kernel_tile_avx2,
                           ovo_reduce_tile_avx2};
  return &ops;
}

}  // namespace xdmodml::simd::detail

#else  // !XDMODML_HAVE_AVX2

namespace xdmodml::simd::detail {

const Ops* avx2_ops() { return nullptr; }

}  // namespace xdmodml::simd::detail

#endif
