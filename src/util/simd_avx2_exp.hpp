// The AVX2 vectorized exp, shared by the two AVX2 translation units
// (simd_avx2.cpp and simd_avx2_serve.cpp).  Include it only from
// sources compiled with -mavx2 -mfma under XDMODML_HAVE_AVX2.
#pragma once

#include <immintrin.h>

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

}  // namespace

}  // namespace xdmodml::simd::detail
