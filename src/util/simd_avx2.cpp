// AVX2 + FMA microkernel table.
//
// Compiled with -mavx2 -mfma when the XDMODML_SIMD CMake option is ON
// and the compiler supports those flags (XDMODML_HAVE_AVX2 is defined
// for this target's sources in that case); otherwise the table is
// absent and `avx2_ops()` returns nullptr so dispatch can never reach
// this ISA.  Nothing here is called unless cpuid reported AVX2+FMA at
// startup (see simd.cpp), so the intrinsics are safe to contain.
#include "util/simd.hpp"
#include "util/simd_ops.hpp"

#if defined(XDMODML_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "util/simd_avx2_exp.hpp"

namespace xdmodml::simd::detail {

namespace {

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

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  if (i + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    i += 4;
  }
  double s = hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

// Four rows per pass: the probe chunk is loaded once and FMA'd into
// four accumulators, then the lane sums collapse with two hadds into a
// single 4-wide store.  One indirect call covers a whole block, so the
// per-row dispatch cost of the dot pass disappears.
void dot_rows_avx2(const double* x, const double* rows, std::size_t d,
                   std::size_t n_rows, double* out) {
  std::size_t j = 0;
  for (; j + 4 <= n_rows; j += 4) {
    const double* r0 = rows + (j + 0) * d;
    const double* r1 = rows + (j + 1) * d;
    const double* r2 = rows + (j + 2) * d;
    const double* r3 = rows + (j + 3) * d;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    std::size_t c = 0;
    for (; c + 4 <= d; c += 4) {
      const __m256d xv = _mm256_loadu_pd(x + c);
      a0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(r0 + c), a0);
      a1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(r1 + c), a1);
      a2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(r2 + c), a2);
      a3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(r3 + c), a3);
    }
    // hadd(a0,a1) = [a0₀+a0₁, a1₀+a1₁, a0₂+a0₃, a1₂+a1₃]; adding the
    // swapped 128-bit halves of the two hadds yields [Σa0 Σa1 Σa2 Σa3].
    const __m256d t01 = _mm256_hadd_pd(a0, a1);
    const __m256d t23 = _mm256_hadd_pd(a2, a3);
    __m256d sums = _mm256_add_pd(_mm256_permute2f128_pd(t01, t23, 0x20),
                                 _mm256_permute2f128_pd(t01, t23, 0x31));
    if (c < d) {
      alignas(32) double tail[4] = {0.0, 0.0, 0.0, 0.0};
      for (; c < d; ++c) {
        tail[0] += x[c] * r0[c];
        tail[1] += x[c] * r1[c];
        tail[2] += x[c] * r2[c];
        tail[3] += x[c] * r3[c];
      }
      sums = _mm256_add_pd(sums, _mm256_load_pd(tail));
    }
    _mm256_storeu_pd(out + j, sums);
  }
  for (; j < n_rows; ++j) out[j] = dot_avx2(x, rows + j * d, d);
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

void rbf_row_transform_avx2(double* dots, const double* sq_norms,
                            std::size_t n, double x_sq, double gamma) {
  const __m256d vx_sq = _mm256_set1_pd(x_sq);
  const __m256d vneg_g = _mm256_set1_pd(-gamma);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d dotv = _mm256_loadu_pd(dots + j);
    // Lane-wise clamped_sq_dist: ‖x‖² + ‖xⱼ‖² − 2·x·xⱼ, floored at 0
    // (2·dot is exact, so the fnmadd matches the scalar helper to 1 ulp).
    __m256d d2 = _mm256_fnmadd_pd(
        two, dotv, _mm256_add_pd(vx_sq, _mm256_loadu_pd(sq_norms + j)));
    d2 = _mm256_max_pd(zero, d2);
    _mm256_storeu_pd(dots + j, exp4(_mm256_mul_pd(vneg_g, d2)));
  }
  if (j < n) {
    for (std::size_t k = j; k < n; ++k) {
      dots[k] = -gamma * clamped_sq_dist(x_sq, sq_norms[k], dots[k]);
    }
    exp4_partial(dots + j, n - j);
  }
}

void poly_row_transform_powi_avx2(double* dots, std::size_t n, double gamma,
                                  double coef0, std::uint64_t degree) {
  const __m256d vg = _mm256_set1_pd(gamma);
  const __m256d vc0 = _mm256_set1_pd(coef0);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    // mul+add (not fmadd) so the base matches the scalar g·dot + c0.
    const __m256d base =
        _mm256_add_pd(_mm256_mul_pd(vg, _mm256_loadu_pd(dots + j)), vc0);
    __m256d result = one;
    __m256d term = base;
    std::uint64_t e = degree;
    // Same multiplication order as simd::powi → lane-exact agreement.
    while (e > 0) {
      if (e & 1u) result = _mm256_mul_pd(result, term);
      term = _mm256_mul_pd(term, term);
      e >>= 1u;
    }
    _mm256_storeu_pd(dots + j, result);
  }
  for (; j < n; ++j) dots[j] = powi(gamma * dots[j] + coef0, degree);
}

}  // namespace

const Ops* avx2_ops() {
  static constexpr Ops ops{dot_avx2,
                           dot_rows_avx2,
                           squared_norm_avx2,
                           exp_inplace_avx2,
                           rbf_row_transform_avx2,
                           poly_row_transform_powi_avx2,
                           kernel_row_panels_avx2,
                           kernel_tile_avx2,
                           ovo_reduce_tile_avx2};
  return &ops;
}

}  // namespace xdmodml::simd::detail

#else  // !XDMODML_HAVE_AVX2

namespace xdmodml::simd::detail {

const Ops* avx2_ops() { return nullptr; }

}  // namespace xdmodml::simd::detail

#endif
