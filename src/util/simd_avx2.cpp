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
// scalar table's γ·dot + c0, the reduce to equal
// SvmInferencePlan::decision_value's scalar `f += coef * k` loop bit for
// bit, and the SMO passes to equal the solver's loops; under GCC's
// default contraction each pair becomes one fmadd and the lanes drift
// from the scalar result by an ulp.
#include "util/simd.hpp"
#include "util/simd_ops.hpp"

#if defined(XDMODML_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
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

// ---- SMO working-set passes ------------------------------------------
//
// Four variables per step.  Each lane keeps its own best value and the
// index (held as a double, exact far past any solvable n) where it first
// met it, by the scalar loop's strict comparison; reduce_lanes then picks
// what the sequential loop would have kept, and the tail continues the
// scan from there.

// All-ones lanes where the 0/1 flags f[0..3] are set.
inline __m256d flag_mask(const std::uint8_t* f) {
  std::int32_t bytes = 0;
  std::memcpy(&bytes, f, sizeof bytes);
  const __m256i wide = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(bytes));
  return _mm256_castsi256_pd(
      _mm256_cmpgt_epi64(wide, _mm256_setzero_si256()));
}

// The best lane value, ties to the lowest index, with that lane's index
// in *arg.  A lane that never took an element holds index −1 and its
// start value (∓inf), which the strict comparison kept every taken
// element away from, so it wins only when every lane is empty.
template <bool kMax>
inline double reduce_lanes(__m256d value, __m256d index, std::ptrdiff_t* arg) {
  alignas(32) double v[4];
  alignas(32) double ix[4];
  _mm256_store_pd(v, value);
  _mm256_store_pd(ix, index);
  std::size_t k = 0;
  for (std::size_t l = 1; l < 4; ++l) {
    const bool better = kMax ? v[l] > v[k] : v[l] < v[k];
    if (better || (v[l] == v[k] && ix[l] < ix[k])) k = l;
  }
  *arg = static_cast<std::ptrdiff_t>(ix[k]);
  return v[k];
}

std::ptrdiff_t smo_update_argmax_avx2(double* grad, const double* y,
                                      const double* k_i, const double* k_j,
                                      double s_i, double s_j,
                                      const std::uint8_t* up, std::size_t n,
                                      double* g_max) {
  const __m256d vs_i = _mm256_set1_pd(s_i);
  const __m256d vs_j = _mm256_set1_pd(s_j);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d four = _mm256_set1_pd(4.0);
  __m256d best = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
  __m256d best_idx = _mm256_set1_pd(-1.0);
  __m256d idx = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d yt = _mm256_loadu_pd(y + t);
    // grad + y·(s_i·k_i + s_j·k_j), each product rounded before its add.
    const __m256d pair =
        _mm256_add_pd(_mm256_mul_pd(vs_i, _mm256_loadu_pd(k_i + t)),
                      _mm256_mul_pd(vs_j, _mm256_loadu_pd(k_j + t)));
    const __m256d g =
        _mm256_add_pd(_mm256_loadu_pd(grad + t), _mm256_mul_pd(yt, pair));
    _mm256_storeu_pd(grad + t, g);
    const __m256d v = _mm256_mul_pd(_mm256_xor_pd(yt, sign), g);  // −y·g
    const __m256d take =
        _mm256_and_pd(flag_mask(up + t), _mm256_cmp_pd(v, best, _CMP_GT_OQ));
    best = _mm256_blendv_pd(best, v, take);
    best_idx = _mm256_blendv_pd(best_idx, idx, take);
    idx = _mm256_add_pd(idx, four);
  }
  std::ptrdiff_t arg = -1;
  double top = reduce_lanes<true>(best, best_idx, &arg);
  for (; t < n; ++t) {
    grad[t] += y[t] * (s_i * k_i[t] + s_j * k_j[t]);
    if (!up[t]) continue;
    const double v = -y[t] * grad[t];
    if (v > top) {
      top = v;
      arg = static_cast<std::ptrdiff_t>(t);
    }
  }
  *g_max = top;
  return arg;
}

std::ptrdiff_t smo_wss2_argmin_avx2(const double* grad, const double* y,
                                    const std::uint8_t* low,
                                    const double* k_i, const double* k_diag,
                                    double k_ii, double g_max, double tau,
                                    std::size_t n, double* g_min) {
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d vk_ii = _mm256_set1_pd(k_ii);
  const __m256d vg_max = _mm256_set1_pd(g_max);
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d four = _mm256_set1_pd(4.0);
  const __m256d none = _mm256_set1_pd(-1.0);
  __m256d lowest = inf;
  __m256d lowest_idx = none;
  __m256d best = inf;
  __m256d best_idx = none;
  __m256d idx = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d in = flag_mask(low + t);
    const __m256d v =
        _mm256_mul_pd(_mm256_xor_pd(_mm256_loadu_pd(y + t), sign),
                      _mm256_loadu_pd(grad + t));
    const __m256d lower =
        _mm256_and_pd(in, _mm256_cmp_pd(v, lowest, _CMP_LT_OQ));
    lowest = _mm256_blendv_pd(lowest, v, lower);
    lowest_idx = _mm256_blendv_pd(lowest_idx, idx, lower);
    const __m256d b = _mm256_sub_pd(vg_max, v);
    // (k_ii + k_tt) − 2·K_it, raised to tau where not positive.
    __m256d a =
        _mm256_sub_pd(_mm256_add_pd(vk_ii, _mm256_loadu_pd(k_diag + t)),
                      _mm256_mul_pd(two, _mm256_loadu_pd(k_i + t)));
    a = _mm256_blendv_pd(a, vtau, _mm256_cmp_pd(a, zero, _CMP_LE_OQ));
    const __m256d obj =
        _mm256_div_pd(_mm256_xor_pd(_mm256_mul_pd(b, b), sign), a);
    // A NaN b passes the loop's `b <= 0` test, but its NaN obj then
    // fails `obj < best`: neither path takes it.
    const __m256d take = _mm256_and_pd(
        _mm256_and_pd(in, _mm256_cmp_pd(b, zero, _CMP_GT_OQ)),
        _mm256_cmp_pd(obj, best, _CMP_LT_OQ));
    best = _mm256_blendv_pd(best, obj, take);
    best_idx = _mm256_blendv_pd(best_idx, idx, take);
    idx = _mm256_add_pd(idx, four);
  }
  std::ptrdiff_t lowest_arg = -1;
  double low_v = reduce_lanes<false>(lowest, lowest_idx, &lowest_arg);
  std::ptrdiff_t arg = -1;
  double top = reduce_lanes<false>(best, best_idx, &arg);
  for (; t < n; ++t) {
    if (!low[t]) continue;
    const double v = -y[t] * grad[t];
    low_v = std::min(low_v, v);
    const double b = g_max - v;
    if (b <= 0.0) continue;
    double a = k_ii + k_diag[t] - 2.0 * k_i[t];
    if (a <= 0.0) a = tau;
    const double obj = -(b * b) / a;
    if (obj < top) {
      top = obj;
      arg = static_cast<std::ptrdiff_t>(t);
    }
  }
  *g_min = low_v;
  return arg;
}

}  // namespace

const Ops* avx2_ops() {
  static constexpr Ops ops{squared_norm_avx2,      exp_inplace_avx2,
                           kernel_row_panels_avx2, kernel_tile_avx2,
                           ovo_reduce_tile_avx2,   smo_update_argmax_avx2,
                           smo_wss2_argmin_avx2};
  return &ops;
}

}  // namespace xdmodml::simd::detail

#else  // !XDMODML_HAVE_AVX2

namespace xdmodml::simd::detail {

const Ops* avx2_ops() { return nullptr; }

}  // namespace xdmodml::simd::detail

#endif
