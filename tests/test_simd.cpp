// SIMD microkernel layer: dispatch plumbing, the vectorized exp's
// accuracy contract (ULP-bounded vs std::exp, exact underflow-to-zero,
// NaN/Inf propagation), SIMD-vs-scalar equivalence of every kernel
// row path — including remainder lanes when sizes are not multiples of
// the vector width — and SMO's two working-set kernels equal to the
// solver's loops bit for bit on every table.
//
// AVX2-specific tests GTEST_SKIP on builds/CPUs without the AVX2 table,
// so the suite is green under XDMODML_SIMD=OFF and on non-x86 hosts.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/kernel.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace xdmodml {
namespace {

// Distance between two finite same-sign doubles in units in the last
// place: consecutive positive doubles have consecutive bit patterns.
std::uint64_t ulp_distance(double a, double b) {
  const auto ia = std::bit_cast<std::int64_t>(a);
  const auto ib = std::bit_cast<std::int64_t>(b);
  return static_cast<std::uint64_t>(ia > ib ? ia - ib : ib - ia);
}

// Restores the startup ISA after each test so forcing scalar/AVX2 here
// cannot leak into other tests in the binary.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = simd::active(); }
  void TearDown() override { simd::set_active(saved_); }

  static bool avx2() { return simd::available(simd::Isa::kAvx2); }

  simd::Isa saved_ = simd::Isa::kScalar;
};

TEST_F(SimdTest, DispatchPlumbing) {
  EXPECT_TRUE(simd::available(simd::Isa::kScalar));
  ASSERT_TRUE(simd::set_active(simd::Isa::kScalar));
  EXPECT_EQ(simd::active(), simd::Isa::kScalar);
  EXPECT_EQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_EQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_EQ(simd::isa_from_string("scalar"), simd::Isa::kScalar);
  EXPECT_EQ(simd::isa_from_string("avx2"), simd::Isa::kAvx2);
  EXPECT_EQ(simd::isa_from_string("auto"), std::nullopt);
  EXPECT_EQ(simd::isa_from_string("sse9"), std::nullopt);
  // detect_best is what auto resolves to and must itself be available.
  EXPECT_TRUE(simd::available(simd::detect_best()));
  if (avx2()) {
    ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
    EXPECT_EQ(simd::active(), simd::Isa::kAvx2);
  }
}

TEST_F(SimdTest, ScalarExpMatchesStdExp) {
  ASSERT_TRUE(simd::set_active(simd::Isa::kScalar));
  std::vector<double> xs{-5.0, -0.5, 0.0, 1.0, 3.25};
  auto expected = xs;
  for (auto& v : expected) v = std::exp(v);
  simd::exp_inplace(xs.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_DOUBLE_EQ(xs[i], expected[i]);
  }
}

// ULP sweep over the primary domain [-708.39, 709]: dense deterministic
// grid plus uniform random draws, with extra density on the RBF band
// (-50, 0] the SVM actually hits.
TEST_F(SimdTest, VectorExpUlpBoundOverFullDomain) {
  if (!avx2()) GTEST_SKIP() << "AVX2 table unavailable";
  ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
  std::vector<double> xs;
  constexpr std::size_t kGrid = 200000;
  constexpr double kLo = -708.39;
  constexpr double kHi = 709.0;
  xs.reserve(kGrid + 120000);
  for (std::size_t i = 0; i < kGrid; ++i) {
    xs.push_back(kLo + (kHi - kLo) * static_cast<double>(i) /
                          static_cast<double>(kGrid - 1));
  }
  Rng rng(20260808);
  for (std::size_t i = 0; i < 80000; ++i) xs.push_back(rng.uniform(kLo, kHi));
  for (std::size_t i = 0; i < 40000; ++i) xs.push_back(rng.uniform(-50.0, 0.0));

  auto got = xs;
  simd::exp_inplace(got.data(), got.size());
  std::uint64_t max_ulp = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double expected = std::exp(xs[i]);
    const std::uint64_t ulp = ulp_distance(got[i], expected);
    ASSERT_LE(ulp, 4u) << "x=" << xs[i] << " got=" << got[i]
                       << " expected=" << expected;
    max_ulp = std::max(max_ulp, ulp);
  }
  // The Cephes polynomial is good to ~2 ULP; a regression past 4 means
  // the range reduction or the 2^n scaling broke.
  EXPECT_LE(max_ulp, 4u);
}

TEST_F(SimdTest, VectorExpUnderflowsToExactZero) {
  if (!avx2()) GTEST_SKIP() << "AVX2 table unavailable";
  ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
  std::vector<double> xs{-708.4, -709.0, -745.0, -1.0e5, -1.0e300,
                         -std::numeric_limits<double>::infinity()};
  simd::exp_inplace(xs.data(), xs.size());
  for (const double v : xs) {
    EXPECT_EQ(v, 0.0);
    EXPECT_FALSE(std::signbit(v)) << "underflow must be +0";
  }
}

TEST_F(SimdTest, VectorExpSpecialValues) {
  if (!avx2()) GTEST_SKIP() << "AVX2 table unavailable";
  ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> xs{std::numeric_limits<double>::quiet_NaN(),
                         inf,
                         0.0,
                         -0.0,
                         710.0,
                         1.0e300};
  simd::exp_inplace(xs.data(), xs.size());
  EXPECT_TRUE(std::isnan(xs[0]));
  EXPECT_EQ(xs[1], inf);
  EXPECT_EQ(xs[2], 1.0);
  EXPECT_EQ(xs[3], 1.0);
  EXPECT_EQ(xs[4], inf);  // saturates above the 709.0 contract bound
  EXPECT_EQ(xs[5], inf);
}

// Remainder-lane handling: every length 1..2·kMaxLanes+3 must agree
// with std::exp, not just multiples of the vector width.
TEST_F(SimdTest, VectorExpRemainderLanes) {
  if (!avx2()) GTEST_SKIP() << "AVX2 table unavailable";
  ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
  Rng rng(7);
  for (std::size_t n = 1; n <= 2 * simd::kMaxLanes + 3; ++n) {
    std::vector<double> xs(n);
    for (auto& v : xs) v = rng.uniform(-40.0, 2.0);
    auto got = xs;
    simd::exp_inplace(got.data(), got.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(ulp_distance(got[i], std::exp(xs[i])), 4u)
          << "n=" << n << " lane " << i;
    }
  }
}

TEST_F(SimdTest, NormMatchesScalarAcrossLengths) {
  if (!avx2()) GTEST_SKIP() << "AVX2 table unavailable";
  Rng rng(31);
  for (std::size_t n = 1; n <= 67; ++n) {
    std::vector<double> a(n);
    for (auto& v : a) v = rng.normal(0.0, 2.0);
    ASSERT_TRUE(simd::set_active(simd::Isa::kScalar));
    const double norm_s = simd::squared_norm(a.data(), n);
    ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
    EXPECT_NEAR(simd::squared_norm(a.data(), n), norm_s, 1e-12) << "n=" << n;
  }
}

TEST_F(SimdTest, RowSquaredNormsIsaIndependent) {
  if (!avx2()) GTEST_SKIP() << "AVX2 table unavailable";
  Rng rng(13);
  Matrix X;
  for (int i = 0; i < 9; ++i) {  // 9 rows x 13 cols: remainders everywhere
    std::vector<double> row(13);
    for (auto& v : row) v = rng.normal(0.0, 3.0);
    X.append_row(row);
  }
  ASSERT_TRUE(simd::set_active(simd::Isa::kScalar));
  const ml::GramRowEngine scalar_engine(X, ml::Kernel::rbf(0.1));
  const auto scalar = scalar_engine.squared_norms();
  ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
  const ml::GramRowEngine vec_engine(X, ml::Kernel::rbf(0.1));
  const auto vec = vec_engine.squared_norms();
  ASSERT_EQ(scalar.size(), vec.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_NEAR(vec[i], scalar[i], 1e-12) << "row " << i;
  }
}

TEST_F(SimdTest, PolyPowiTransformLaneExactAgainstScalar) {
  if (!avx2()) GTEST_SKIP() << "AVX2 table unavailable";
  Rng rng(41);
  // 11 one-feature rows: a full panel and a padded one.  With one
  // feature the panel-major layout is row order, and against the unit
  // query every dot is the row value itself on both tables, so only the
  // transform can differ.  γ = 0.3 makes γ·dot inexact, so a base fused
  // into one multiply-add would round differently from the scalar one.
  const std::size_t n = 11;
  std::vector<double> panels(simd::panel_rows(n), 0.0);
  for (std::size_t j = 0; j < n; ++j) panels[j] = rng.uniform(-2.0, 2.0);
  const std::vector<double> sq_norms(simd::panel_rows(n), 0.0);
  const double x = 1.0;
  simd::RowKernel poly;
  poly.kind = simd::RowKernel::Kind::kPolyPowi;
  poly.gamma = 0.3;
  poly.coef0 = 1.0;
  poly.degree = 3;
  std::vector<double> scalar(n);
  std::vector<double> vec(n);
  ASSERT_TRUE(simd::set_active(simd::Isa::kScalar));
  simd::kernel_row_panels(&x, 0.0, 1, panels.data(), sq_norms.data(), n,
                          poly, scalar.data());
  ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
  simd::kernel_row_panels(&x, 0.0, 1, panels.data(), sq_norms.data(), n,
                          poly, vec.data());
  for (std::size_t j = 0; j < n; ++j) {
    // Same base arithmetic and the same squaring order as simd::powi —
    // vector lanes reproduce the scalar path to the last bit.
    EXPECT_EQ(vec[j], scalar[j]) << "row " << j;
  }
}

// The scalar table advances 8 dots at once (a panel's rows, or a
// tile's queries) but sums each one feature by feature from zero, so
// its row and its tile equal a plain one-chain loop bit for bit.  37
// rows end in a padded panel; the query sits in lane 3 of the tile.
TEST_F(SimdTest, ScalarTableSumsEachDotInFeatureOrder) {
  ASSERT_TRUE(simd::set_active(simd::Isa::kScalar));
  Rng rng(57);
  const std::size_t n = 37;
  const std::size_t d = 13;
  std::vector<double> rows(simd::panel_rows(n) * d, 0.0);
  for (std::size_t i = 0; i < n * d; ++i) rows[i] = rng.normal(0.0, 1.0);
  std::vector<double> expected(n);
  std::vector<double> x(d);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    double dot = 0.0;
    for (std::size_t f = 0; f < d; ++f) {
      volatile double product = x[f] * rows[j * d + f];  // no contraction
      dot += product;
    }
    expected[j] = dot;
  }
  simd::pack_panels(rows.data(), n, d);
  const std::vector<double> sq_norms(simd::panel_rows(n), 0.0);
  const simd::RowKernel dot_kernel;
  std::vector<double> row(n);
  simd::kernel_row_panels(x.data(), 0.0, d, rows.data(), sq_norms.data(), n,
                          dot_kernel, row.data());
  std::vector<double> queries_t(d * simd::kTileQueries);
  for (auto& v : queries_t) v = rng.normal(0.0, 1.0);
  for (std::size_t f = 0; f < d; ++f) {
    queries_t[f * simd::kTileQueries + 3] = x[f];
  }
  const std::vector<double> x_sq(simd::kTileQueries, 0.0);
  std::vector<double> tile(simd::panel_rows(n) * simd::kTileQueries);
  simd::kernel_tile(queries_t.data(), x_sq.data(), d, rows.data(),
                    sq_norms.data(), n, dot_kernel, tile.data());
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(row[j]),
              std::bit_cast<std::uint64_t>(expected[j]))
        << "row " << j;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tile[j * simd::kTileQueries + 3]),
              std::bit_cast<std::uint64_t>(expected[j]))
        << "tile row " << j;
  }
}

TEST_F(SimdTest, ClampedSqDistFloorsRoundOff) {
  // Identical vectors: expansion can round below zero; the shared helper
  // must floor at exactly 0 so exp(−γ·d²) stays exactly 1.
  EXPECT_EQ(simd::clamped_sq_dist(2.0, 2.0, 2.0 + 1e-16), 0.0);
  EXPECT_EQ(simd::clamped_sq_dist(25.0, 1.0, 2.0), 25.0 + 1.0 - 4.0);
  // An overflowed expansion stays NaN, as under AVX2's max(0, ·).
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isnan(simd::clamped_sq_dist(inf, 1.0, inf)));
}

// 1e-12, relative for kernel values above 1 (the AVX2 dot fuses each
// multiply-add, so big polynomial values agree to ULPs rather than an
// absolute 1e-12).
double row_tolerance(double expected) {
  return 1e-12 * std::max(1.0, std::abs(expected));
}

// The property the SMO solver rests on: engine rows must be
// ISA-independent to 1e-12 (relative above 1) for every kernel family,
// with 38 rows so the sweep ends in a padded panel (38 % 8 != 0).
TEST_F(SimdTest, GramRowsAgreeAcrossIsasAllKernels) {
  if (!avx2()) GTEST_SKIP() << "AVX2 table unavailable";
  Rng rng(99);
  Matrix X;
  for (int i = 0; i < 37; ++i) {
    std::vector<double> row(13);
    for (auto& v : row) v = rng.normal(0.0, 2.0);
    X.append_row(row);
  }
  X.append_row(X.row(5));  // duplicate row → clamped d² = 0 case

  const std::vector<ml::Kernel> kernels{
      ml::Kernel::linear(), ml::Kernel::rbf(0.1),
      ml::Kernel::polynomial(3.0, 0.5, 1.0),
      ml::Kernel::polynomial(2.5, 0.1, 30.0)};
  const std::vector<double> probe(13, 0.25);
  for (const auto& kernel : kernels) {
    const ml::GramRowEngine engine(X, kernel);
    std::vector<double> scalar_row(X.rows());
    std::vector<double> vec_row(X.rows());
    for (std::size_t i = 0; i < X.rows(); ++i) {
      ASSERT_TRUE(simd::set_active(simd::Isa::kScalar));
      engine.fill_row(i, scalar_row);
      ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
      engine.fill_row(i, vec_row);
      for (std::size_t j = 0; j < X.rows(); ++j) {
        ASSERT_NEAR(vec_row[j], scalar_row[j], row_tolerance(scalar_row[j]))
            << kernel.name() << " row " << i << " col " << j;
      }
    }
    ASSERT_TRUE(simd::set_active(simd::Isa::kScalar));
    engine.fill_row_for(probe, scalar_row);
    ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
    engine.fill_row_for(probe, vec_row);
    for (std::size_t j = 0; j < X.rows(); ++j) {
      ASSERT_NEAR(vec_row[j], scalar_row[j], row_tolerance(scalar_row[j]))
          << kernel.name() << " probe col " << j;
    }
  }
}

// ---- SMO working-set passes -------------------------------------------

constexpr double kTau = 1e-12;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct SmoPassInputs {
  std::vector<double> grad;
  std::vector<double> y;
  std::vector<double> k_i;
  std::vector<double> k_j;
  std::vector<double> k_diag;
  std::vector<std::uint8_t> flags;
  double s_i = 0.0;
  double s_j = 0.0;
  double k_ii = 1.0;
  double g_max = 0.0;
};

// The solver's loops over its active set, written out once more: the
// reference every table's kernel must equal bit for bit.
std::ptrdiff_t reference_update_argmax(SmoPassInputs& in, double& g_max) {
  g_max = -std::numeric_limits<double>::infinity();
  std::ptrdiff_t arg = -1;
  for (std::size_t t = 0; t < in.grad.size(); ++t) {
    in.grad[t] += in.y[t] * (in.s_i * in.k_i[t] + in.s_j * in.k_j[t]);
    if (!in.flags[t]) continue;
    const double v = -in.y[t] * in.grad[t];
    if (v > g_max) {
      g_max = v;
      arg = static_cast<std::ptrdiff_t>(t);
    }
  }
  return arg;
}

std::ptrdiff_t reference_wss2_argmin(const SmoPassInputs& in, double& g_min) {
  g_min = std::numeric_limits<double>::infinity();
  double best = std::numeric_limits<double>::infinity();
  std::ptrdiff_t arg = -1;
  for (std::size_t t = 0; t < in.grad.size(); ++t) {
    if (!in.flags[t]) continue;
    const double v = -in.y[t] * in.grad[t];
    g_min = std::min(g_min, v);
    const double b = in.g_max - v;
    if (b <= 0.0) continue;
    double a = in.k_ii + in.k_diag[t] - 2.0 * in.k_i[t];
    if (a <= 0.0) a = kTau;
    const double obj = -(b * b) / a;
    if (obj < best) {
      best = obj;
      arg = static_cast<std::ptrdiff_t>(t);
    }
  }
  return arg;
}

enum class SmoShape { kRandom, kTies, kNoFlags, kNoViolation, kFlatCurvature };

SmoPassInputs make_smo_inputs(std::size_t n, SmoShape shape, Rng& rng) {
  SmoPassInputs in;
  const double tie_grads[] = {1.5, -1.5, 0.0, -0.0};
  for (std::size_t t = 0; t < n; ++t) {
    in.y.push_back(rng.uniform_index(2) == 0 ? 1.0 : -1.0);
    in.flags.push_back(shape == SmoShape::kNoFlags ? 0
                       : rng.uniform_index(4) != 0 ? 1
                                                   : 0);
    in.k_diag.push_back(1.0);
    if (shape == SmoShape::kTies) {
      // Few distinct gradients and rows: equal values at many indices,
      // signed zeros among them.
      in.grad.push_back(tie_grads[rng.uniform_index(4)]);
      in.k_i.push_back(rng.uniform_index(2) == 0 ? 0.25 : 0.5);
      in.k_j.push_back(0.5);
    } else {
      in.grad.push_back(rng.normal(0.0, 1.5));
      // a = 2 − 2·k_i is exactly 0 or negative on the flat shape.
      in.k_i.push_back(shape != SmoShape::kFlatCurvature ? rng.uniform(0.0, 1.0)
                       : t % 3 == 0                      ? 1.0
                                    : rng.uniform(1.0, 2.0));
      in.k_j.push_back(rng.uniform(0.0, 1.0));
    }
  }
  if (shape != SmoShape::kTies) {
    in.s_i = rng.normal(0.0, 1.0);
    in.s_j = rng.normal(0.0, 1.0);
  }
  in.g_max = shape == SmoShape::kNoViolation ? -1e9
             : shape == SmoShape::kTies      ? 1.5
                                             : rng.normal(1.0, 1.0);
  return in;
}

// Both kernels on every available table against the reference loops, at
// every length 0–13 so each tail runs, over random inputs, ties, an
// empty flag set, no violating pair (b ≤ 0 everywhere) and curvature
// a ≤ 0 (the τ clamp).
TEST_F(SimdTest, SmoKernelsEqualTheSolverLoopsBitForBit) {
  std::vector<simd::Isa> isas{simd::Isa::kScalar};
  if (avx2()) isas.push_back(simd::Isa::kAvx2);
  Rng rng(2005);
  for (const SmoShape shape :
       {SmoShape::kRandom, SmoShape::kTies, SmoShape::kNoFlags,
        SmoShape::kNoViolation, SmoShape::kFlatCurvature}) {
    for (std::size_t n = 0; n <= 13; ++n) {
      for (int rep = 0; rep < 8; ++rep) {
        const SmoPassInputs in = make_smo_inputs(n, shape, rng);
        SmoPassInputs ref = in;
        double ref_g_max = 0.0;
        const auto ref_i = reference_update_argmax(ref, ref_g_max);
        double ref_g_min = 0.0;
        const auto ref_j = reference_wss2_argmin(in, ref_g_min);
        if (shape == SmoShape::kNoFlags) {
          EXPECT_EQ(ref_i, -1);
          EXPECT_EQ(ref_g_max, -std::numeric_limits<double>::infinity());
          EXPECT_EQ(ref_g_min, std::numeric_limits<double>::infinity());
        }
        if (shape == SmoShape::kNoFlags || shape == SmoShape::kNoViolation) {
          EXPECT_EQ(ref_j, -1);
        }
        for (const simd::Isa isa : isas) {
          ASSERT_TRUE(simd::set_active(isa));
          const auto where = ::testing::Message()
                             << simd::isa_name(isa) << " shape "
                             << static_cast<int>(shape) << " n " << n
                             << " rep " << rep;
          std::vector<double> grad = in.grad;
          double g_max = 0.0;
          const auto i = simd::smo_update_argmax(
              grad.data(), in.y.data(), in.k_i.data(), in.k_j.data(), in.s_i,
              in.s_j, in.flags.data(), n, &g_max);
          EXPECT_EQ(i, ref_i) << where;
          EXPECT_EQ(bits(g_max), bits(ref_g_max)) << where;
          for (std::size_t t = 0; t < n; ++t) {
            EXPECT_EQ(bits(grad[t]), bits(ref.grad[t])) << where << " t " << t;
          }
          double g_min = 0.0;
          const auto j = simd::smo_wss2_argmin(
              in.grad.data(), in.y.data(), in.flags.data(), in.k_i.data(),
              in.k_diag.data(), in.k_ii, in.g_max, kTau, n, &g_min);
          EXPECT_EQ(j, ref_j) << where;
          EXPECT_EQ(bits(g_min), bits(ref_g_min)) << where;
        }
      }
    }
  }
}

// Ties across lanes resolve to the first index, and the value returned
// is that element's own: −0.0 at index 1 beats +0.0 at 3 and −0.0 at 4
// for the I_up maximum; +0.0 at index 1 beats −0.0 at 3 for g_min.
TEST_F(SimdTest, SmoKernelTiesGoToTheFirstIndex) {
  std::vector<simd::Isa> isas{simd::Isa::kScalar};
  if (avx2()) isas.push_back(simd::Isa::kAvx2);
  const std::size_t n = 11;
  const std::vector<double> y(n, -1.0);  // v = −y·g = g
  const std::vector<double> zeros(n, 0.0);
  const std::vector<double> ones(n, 1.0);
  const std::vector<std::uint8_t> flags(n, 1);
  for (const simd::Isa isa : isas) {
    ASSERT_TRUE(simd::set_active(isa));
    std::vector<double> grad{-5.0, -0.0, -3.0, 0.0,  -0.0, -7.0,
                             -1.0, -2.0, -0.0, -4.0, 0.0};
    double g_max = 1.0;
    // s_i = s_j = 0 adds y·(+0) = −0, which keeps every gradient's bits.
    EXPECT_EQ(simd::smo_update_argmax(grad.data(), y.data(), zeros.data(),
                                      zeros.data(), 0.0, 0.0, flags.data(), n,
                                      &g_max),
              1)
        << simd::isa_name(isa);
    EXPECT_EQ(bits(g_max), bits(-0.0)) << simd::isa_name(isa);

    // With g_max = 1 and a = 2 everywhere, obj = −(1 − v)²/2 is lowest
    // where v = −1: indices 2, 6 and 9.
    const std::vector<double> wss{0.5, 0.0, -1.0, -0.0, 0.5, 0.5,
                                  -1.0, 0.5, 0.5, -1.0, 0.5};
    double g_min = 0.0;
    EXPECT_EQ(simd::smo_wss2_argmin(wss.data(), y.data(), flags.data(),
                                    zeros.data(), ones.data(), 1.0, 1.0, kTau,
                                    n, &g_min),
              2)
        << simd::isa_name(isa);
    EXPECT_EQ(g_min, -1.0) << simd::isa_name(isa);
    const std::vector<double> zero_min{0.5, 0.0, 0.5, -0.0, 0.5, 0.5,
                                       0.5, 0.5, 0.5, 0.5,  0.5};
    simd::smo_wss2_argmin(zero_min.data(), y.data(), flags.data(),
                          zeros.data(), ones.data(), 1.0, 1.0, kTau, n,
                          &g_min);
    EXPECT_EQ(bits(g_min), bits(0.0)) << simd::isa_name(isa);
  }
}

}  // namespace
}  // namespace xdmodml
