// Property-based (parameterized) test sweeps over the ML layer:
// SMO KKT conditions across solver configurations, pairwise-coupling
// invariants across class counts, forest OOB consistency across
// hyper-parameters, and standardizer invariants across shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "ml/dataset.hpp"
#include "ml/kernel.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "ml/smo.hpp"
#include "ml/svm.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace xdmodml::ml {
namespace {

// ---------------------------------------------------------------------
// SMO: for every (C, kernel, seed), the solution must satisfy the dual
// constraints and the KKT complementarity conditions.
// ---------------------------------------------------------------------
using SmoParam = std::tuple<double /*C*/, int /*kernel*/, int /*seed*/>;

class SmoKktProperty : public ::testing::TestWithParam<SmoParam> {};

TEST_P(SmoKktProperty, SolutionSatisfiesKkt) {
  const auto [c_value, kernel_kind, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  Matrix X;
  std::vector<signed char> y;
  for (int i = 0; i < 60; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    X.append_row(std::vector<double>{rng.normal(label * 0.8, 1.0),
                                     rng.normal(0.0, 1.0)});
    y.push_back(static_cast<signed char>(label));
  }
  const Kernel kernel =
      kernel_kind == 0 ? Kernel::linear() : Kernel::rbf(0.5);
  std::vector<double> p(X.rows(), -1.0);
  std::vector<double> c(X.rows(), c_value);
  SmoProblem problem;
  problem.n = X.rows();
  problem.p = p;
  problem.y = y;
  problem.c = c;
  problem.kernel_row = [&](std::size_t i, std::span<double> out) {
    for (std::size_t j = 0; j < X.rows(); ++j) {
      out[j] = kernel(X.row(i), X.row(j));
    }
  };
  problem.kernel_diag = [&](std::size_t i) {
    return kernel(X.row(i), X.row(i));
  };
  SmoConfig config;
  config.tolerance = 1e-4;
  const auto result = solve_smo(problem, config);
  ASSERT_TRUE(result.converged);

  // Dual feasibility.
  double balance = 0.0;
  for (std::size_t i = 0; i < X.rows(); ++i) {
    EXPECT_GE(result.alpha[i], -1e-12);
    EXPECT_LE(result.alpha[i], c_value + 1e-12);
    balance += result.alpha[i] * static_cast<double>(y[i]);
  }
  EXPECT_NEAR(balance, 0.0, 1e-8);

  // KKT complementarity.
  auto decision = [&](std::span<const double> x) {
    double f = -result.rho;
    for (std::size_t j = 0; j < X.rows(); ++j) {
      f += result.alpha[j] * static_cast<double>(y[j]) *
           kernel(X.row(j), x);
    }
    return f;
  };
  const double tol = 2e-2;
  for (std::size_t i = 0; i < X.rows(); ++i) {
    const double margin = static_cast<double>(y[i]) * decision(X.row(i));
    if (margin > 1.0 + tol) {
      EXPECT_NEAR(result.alpha[i], 0.0, 1e-8) << "row " << i;
    } else if (margin < 1.0 - tol) {
      EXPECT_NEAR(result.alpha[i], c_value, 1e-8) << "row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SolverGrid, SmoKktProperty,
    ::testing::Combine(::testing::Values(0.5, 10.0, 1000.0),
                       ::testing::Values(0, 1),
                       ::testing::Values(1, 2, 3)));

// ---------------------------------------------------------------------
// Pairwise coupling: for any class count and any consistent random
// pairwise matrix, the coupled probabilities are a distribution, and a
// matrix generated *from* a known distribution recovers its argmax.
// ---------------------------------------------------------------------
class CouplingProperty : public ::testing::TestWithParam<int> {};

TEST_P(CouplingProperty, ProducesConsistentDistribution) {
  const int k = GetParam();
  Rng rng(static_cast<std::uint64_t>(k) * 31 + 7);
  // Ground-truth class distribution with an unambiguous winner (the
  // coupling noise below could flip a near-tie, which would not be a
  // coupling defect).
  std::vector<double> truth(static_cast<std::size_t>(k));
  for (auto& t : truth) t = rng.uniform(0.05, 1.0);
  truth[rng.uniform_index(truth.size())] = 3.0;
  double total = 0.0;
  for (const auto t : truth) total += t;
  for (auto& t : truth) t /= total;

  // Pairwise matrix from the truth: r_ij = p_i / (p_i + p_j), plus noise.
  Matrix pairwise(static_cast<std::size_t>(k), static_cast<std::size_t>(k),
                  0.0);
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      const auto ui = static_cast<std::size_t>(i);
      const auto uj = static_cast<std::size_t>(j);
      double r = truth[ui] / (truth[ui] + truth[uj]);
      r = std::clamp(r + rng.normal(0.0, 0.01), 0.01, 0.99);
      pairwise(ui, uj) = r;
      pairwise(uj, ui) = 1.0 - r;
    }
  }
  const auto coupled = couple_pairwise_probabilities(pairwise);
  ASSERT_EQ(coupled.size(), static_cast<std::size_t>(k));
  double sum = 0.0;
  for (const auto p : coupled) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Argmax preserved.
  const auto truth_best =
      std::max_element(truth.begin(), truth.end()) - truth.begin();
  const auto coupled_best =
      std::max_element(coupled.begin(), coupled.end()) - coupled.begin();
  EXPECT_EQ(truth_best, coupled_best);
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, CouplingProperty,
                         ::testing::Values(2, 3, 4, 6, 8, 12, 20));

// ---------------------------------------------------------------------
// Random forest: across tree counts and mtry settings, the OOB estimate
// must track a held-out estimate.
// ---------------------------------------------------------------------
using ForestParam = std::tuple<int /*trees*/, int /*mtry*/>;

class ForestOobProperty : public ::testing::TestWithParam<ForestParam> {};

TEST_P(ForestOobProperty, OobTracksHoldout) {
  const auto [trees, mtry] = GetParam();
  Rng rng(99);
  auto sample = [&rng](Matrix& X, std::vector<int>& y, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const int cls = static_cast<int>(rng.uniform_index(3));
      X.append_row(std::vector<double>{
          rng.normal(cls * 1.6, 1.0), rng.normal(cls % 2 * 2.0, 1.0),
          rng.normal(0.0, 1.0)});
      y.push_back(cls);
    }
  };
  Matrix X;
  std::vector<int> y;
  sample(X, y, 900);
  Matrix xt;
  std::vector<int> yt;
  sample(xt, yt, 600);

  ForestConfig cfg;
  cfg.num_trees = static_cast<std::size_t>(trees);
  cfg.tree.max_features = static_cast<std::size_t>(mtry);
  RandomForestClassifier rf(cfg, 7);
  rf.fit(X, y, 3);
  std::size_t wrong = 0;
  for (std::size_t r = 0; r < xt.rows(); ++r) {
    if (rf.predict(xt.row(r)) != yt[r]) ++wrong;
  }
  const double holdout =
      static_cast<double>(wrong) / static_cast<double>(xt.rows());
  EXPECT_NEAR(rf.oob_error(), holdout, 0.07);
}

INSTANTIATE_TEST_SUITE_P(ForestGrid, ForestOobProperty,
                         ::testing::Combine(::testing::Values(40, 120),
                                            ::testing::Values(0, 1, 3)));

// ---------------------------------------------------------------------
// Standardizer: across shapes and seeds, transformed training data has
// zero mean / unit variance per column, and transform is affine.
// ---------------------------------------------------------------------
using StdParam = std::tuple<int /*cols*/, int /*seed*/>;

class StandardizerProperty : public ::testing::TestWithParam<StdParam> {};

TEST_P(StandardizerProperty, ZeroMeanUnitVariance) {
  const auto [cols, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  Matrix X(200, static_cast<std::size_t>(cols));
  for (std::size_t r = 0; r < X.rows(); ++r) {
    for (std::size_t c = 0; c < X.cols(); ++c) {
      X(r, c) = rng.lognormal(static_cast<double>(c), 1.0 + 0.1 * c);
    }
  }
  Standardizer s;
  const auto Z = s.fit_transform(X);
  for (std::size_t c = 0; c < Z.cols(); ++c) {
    RunningStats rs;
    for (std::size_t r = 0; r < Z.rows(); ++r) rs.add(Z(r, c));
    EXPECT_NEAR(rs.mean(), 0.0, 1e-9);
    EXPECT_NEAR(rs.stddev(), 1.0, 1e-6);
  }
  // Affine: transform(x) == (x - mean) / scale exactly.
  std::vector<double> probe(X.cols(), 1.0);
  auto copy = probe;
  s.transform_row(copy);
  for (std::size_t c = 0; c < X.cols(); ++c) {
    EXPECT_DOUBLE_EQ(copy[c], (1.0 - s.means()[c]) / s.scales()[c]);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, StandardizerProperty,
                         ::testing::Combine(::testing::Values(1, 5, 48),
                                            ::testing::Values(1, 2)));

// ---------------------------------------------------------------------
// Threshold sweeps: for random predictions, the descending-grid curves
// are monotone, bounded, and hit exact endpoints.
// ---------------------------------------------------------------------
class ThresholdSweepProperty : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSweepProperty, CurveInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<Prediction> preds;
  std::vector<int> actual;
  for (int i = 0; i < 500; ++i) {
    preds.push_back({static_cast<int>(rng.uniform_index(5)),
                     rng.uniform()});
    actual.push_back(static_cast<int>(rng.uniform_index(5)));
  }
  const auto grid = default_threshold_grid();
  const auto curve = threshold_sweep(preds, actual, grid);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const auto& pt = curve[i];
    EXPECT_GE(pt.classified_fraction, pt.correct_fraction);
    EXPECT_GE(pt.classified_fraction, 0.0);
    EXPECT_LE(pt.classified_fraction, 1.0);
    EXPECT_GE(pt.eq1_x, 0.0);
    EXPECT_LE(pt.eq1_x, 1.0);
    if (i > 0) {
      EXPECT_LE(curve[i - 1].classified_fraction,
                curve[i].classified_fraction);
    }
  }
  // At the lowest threshold (0.05), essentially everything classifies.
  EXPECT_GT(curve.back().classified_fraction, 0.94);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdSweepProperty,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace xdmodml::ml
