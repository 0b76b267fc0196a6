// AVX2 serving kernels for the compiled SVM plan: the panel-major kernel
// row, the query tile and the batched one-vs-one reduce (simd.hpp).
//
// A TU of its own because it compiles with -ffp-contract=off (next to
// -mavx2 -mfma, under the same XDMODML_HAVE_AVX2 gate as simd_avx2.cpp):
// here a fused multiply-add is always an explicit `_mm256_fmadd_pd`, and
// a `_mm256_mul_pd` feeding a `_mm256_add_pd` always rounds twice.  The
// reduce depends on the latter to equal SvmInferencePlan::decision_value's
// scalar `f += coef * k` loop bit for bit; under GCC's default
// contraction the pair becomes one fmadd and the lanes drift from it by
// an ulp.  The older kernels in simd_avx2.cpp keep the default, so their
// results do not move.
#include "util/simd.hpp"
#include "util/simd_ops.hpp"

#if defined(XDMODML_HAVE_AVX2)

#include <immintrin.h>

#include <cstring>

#include "util/simd_avx2_exp.hpp"

namespace xdmodml::simd::detail {

namespace {

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

}  // namespace

void kernel_row_panels_avx2(const double* x, double x_sq, std::size_t d,
                            const double* panels, const double* sq_norms,
                            std::size_t n_rows, const RowKernel& kernel,
                            double* out) {
  switch (kernel.kind) {
    case RowKernel::Kind::kDot:
      return kernel_row_panels_impl<RowKernel::Kind::kDot>(x, x_sq, d, panels, sq_norms,
                                                n_rows, kernel, out);
    case RowKernel::Kind::kRbf:
      return kernel_row_panels_impl<RowKernel::Kind::kRbf>(x, x_sq, d, panels, sq_norms,
                                                n_rows, kernel, out);
    case RowKernel::Kind::kPolyPowi:
      return kernel_row_panels_impl<RowKernel::Kind::kPolyPowi>(
          x, x_sq, d, panels, sq_norms, n_rows, kernel, out);
  }
}

void kernel_tile_avx2(const double* queries_t, const double* x_sq,
                      std::size_t d, const double* panels,
                      const double* sq_norms, std::size_t n_rows,
                      const RowKernel& kernel, double* out) {
  switch (kernel.kind) {
    case RowKernel::Kind::kDot:
      return kernel_tile_impl<RowKernel::Kind::kDot>(queries_t, x_sq, d, panels,
                                          sq_norms, n_rows, kernel, out);
    case RowKernel::Kind::kRbf:
      return kernel_tile_impl<RowKernel::Kind::kRbf>(queries_t, x_sq, d, panels,
                                          sq_norms, n_rows, kernel, out);
    case RowKernel::Kind::kPolyPowi:
      return kernel_tile_impl<RowKernel::Kind::kPolyPowi>(queries_t, x_sq, d, panels,
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

}  // namespace xdmodml::simd::detail

#endif  // XDMODML_HAVE_AVX2
