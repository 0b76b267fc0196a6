// Tests for kernel functions and the Gram-row engine.
#include "ml/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml {
namespace {

TEST(Kernel, DotAndSquaredDistance) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0 - 10.0 + 18.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 9.0 + 49.0 + 9.0);
  EXPECT_THROW(dot(a, std::vector<double>{1.0}), InvalidArgument);
}

TEST(Kernel, LinearMatchesDot) {
  const auto k = Kernel::linear();
  const std::vector<double> a{1.0, -1.0};
  const std::vector<double> b{2.0, 3.0};
  EXPECT_DOUBLE_EQ(k(a, b), -1.0);
  EXPECT_EQ(k.name(), "linear");
}

TEST(Kernel, RbfProperties) {
  const auto k = Kernel::rbf(0.1);
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{3.0, 4.0};
  // Symmetric, bounded by 1, equal points give exactly 1.
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
  EXPECT_DOUBLE_EQ(k(a, a), 1.0);
  EXPECT_GT(k(a, b), 0.0);
  EXPECT_LT(k(a, b), 1.0);
  EXPECT_DOUBLE_EQ(k(a, b), std::exp(-0.1 * 8.0));
}

TEST(Kernel, RbfDecaysWithDistance) {
  const auto k = Kernel::rbf(0.5);
  const std::vector<double> origin{0.0};
  EXPECT_GT(k(origin, std::vector<double>{1.0}),
            k(origin, std::vector<double>{2.0}));
}

TEST(Kernel, PolynomialKnownValue) {
  const auto k = Kernel::polynomial(2.0, 1.0, 1.0);
  const std::vector<double> a{1.0, 1.0};
  const std::vector<double> b{2.0, 0.0};
  // (1*2 + 1)² = 9
  EXPECT_DOUBLE_EQ(k(a, b), 9.0);
}

TEST(Kernel, ValidatesParameters) {
  EXPECT_THROW(Kernel::rbf(0.0), InvalidArgument);
  EXPECT_THROW(Kernel::rbf(-1.0), InvalidArgument);
  EXPECT_THROW(Kernel::polynomial(0.0, 1.0, 0.0), InvalidArgument);
}

TEST(Kernel, PowiMatchesStdPow) {
  for (const double base : {0.5, -1.3, 2.0, 7.25}) {
    for (std::uint64_t e = 0; e <= 12; ++e) {
      EXPECT_NEAR(powi(base, e), std::pow(base, static_cast<double>(e)),
                  1e-9 * std::abs(std::pow(std::abs(base),
                                           static_cast<double>(e))) + 1e-12)
          << base << "^" << e;
    }
  }
  EXPECT_DOUBLE_EQ(powi(3.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(powi(-2.0, 3), -8.0);
}

// 1e-12, relative for kernel values above 1: the SIMD sweep expands
// ‖x − y‖² through the norms and fuses its multiply-adds, so large
// polynomial/linear kernel values agree with the naive scalar loop to
// ULPs (relative error), not to an absolute 1e-12.
double row_tolerance(double expected) {
  return 1e-12 * std::max(1.0, std::abs(expected));
}

// The norm-cached vectorized row path must reproduce the naive pairwise
// Kernel::operator() row to 1e-12 (relative above 1 — see
// row_tolerance) for every kernel family — the SMO solver's correctness
// rests on the two paths being interchangeable.
TEST(GramRowEngine, RowsMatchNaivePairwiseKernels) {
  Rng rng(99);
  Matrix X;
  for (int i = 0; i < 40; ++i) {
    std::vector<double> row(7);
    for (auto& v : row) v = rng.normal(0.0, 2.0);
    X.append_row(row);
  }
  // Duplicate a row so the RBF path exercises the clamped d² = 0 case.
  X.append_row(X.row(3));

  const std::vector<Kernel> kernels{
      Kernel::linear(), Kernel::rbf(0.1),
      Kernel::polynomial(3.0, 0.5, 1.0),    // integer degree -> powi path
      // Fractional degree -> std::pow; coef0 keeps the base positive so
      // the non-integer exponent is defined.
      Kernel::polynomial(2.5, 0.1, 30.0)};
  for (const auto& kernel : kernels) {
    const GramRowEngine engine(X, kernel);
    std::vector<double> row(X.rows());
    for (std::size_t i = 0; i < X.rows(); ++i) {
      engine.fill_row(i, row);
      for (std::size_t j = 0; j < X.rows(); ++j) {
        const double expected = kernel(X.row(i), X.row(j));
        EXPECT_NEAR(row[j], expected, row_tolerance(expected))
            << kernel.name() << " row " << i << " col " << j;
      }
      const double diag = kernel(X.row(i), X.row(i));
      EXPECT_NEAR(engine.diagonal(i), diag, row_tolerance(diag))
          << kernel.name() << " diagonal " << i;
    }
  }
}

TEST(GramRowEngine, ProbeRowMatchesScalarKernel) {
  Rng rng(7);
  Matrix X;
  for (int i = 0; i < 12; ++i) {
    std::vector<double> row(4);
    for (auto& v : row) v = rng.normal(0.0, 1.0);
    X.append_row(row);
  }
  const auto kernel = Kernel::rbf(0.25);
  const GramRowEngine engine(X, kernel);
  const std::vector<double> probe{0.3, -1.1, 0.0, 2.2};
  std::vector<double> row(X.rows());
  engine.fill_row_for(probe, row);
  for (std::size_t j = 0; j < X.rows(); ++j) {
    EXPECT_NEAR(row[j], kernel(probe, X.row(j)), 1e-12);
  }
}

TEST(GramRowEngine, SquaredNormsCached) {
  Matrix X = Matrix::from_rows({{3.0, 4.0}, {1.0, 0.0}});
  const GramRowEngine engine(X, Kernel::rbf(1.0));
  ASSERT_EQ(engine.squared_norms().size(), 2u);
  EXPECT_DOUBLE_EQ(engine.squared_norms()[0], 25.0);
  EXPECT_DOUBLE_EQ(engine.squared_norms()[1], 1.0);
}

TEST(GramRowEngine, ValidatesInputs) {
  Matrix X = Matrix::from_rows({{1.0, 2.0}});
  const GramRowEngine engine(X, Kernel::linear());
  std::vector<double> small;
  EXPECT_THROW(engine.fill_row(0, small), InvalidArgument);
  EXPECT_THROW(engine.fill_row(5, small), InvalidArgument);
  Matrix empty;
  EXPECT_THROW(GramRowEngine(empty, Kernel::linear()), InvalidArgument);
}

TEST(Kernel, RbfGramMatrixPositiveSemidefiniteDiagonal) {
  // Weak PSD sanity check: all 2x2 principal minors non-negative.
  const auto k = Kernel::rbf(0.3);
  const std::vector<std::vector<double>> pts{
      {0.0, 0.0}, {1.0, 0.5}, {-2.0, 1.0}, {3.0, -1.0}};
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      const double kij = k(pts[i], pts[j]);
      const double det = k(pts[i], pts[i]) * k(pts[j], pts[j]) - kij * kij;
      EXPECT_GE(det, -1e-12);
    }
  }
}

}  // namespace
}  // namespace xdmodml::ml
