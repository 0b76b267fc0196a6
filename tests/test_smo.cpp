// Tests for the SMO solver and kernel-row cache.
#include "ml/smo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ml/kernel.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {
namespace {

/// Builds an SMO problem for a hard-margin-ish linear SVM over given points.
struct LinearProblemFixture {
  Matrix X;
  std::vector<signed char> y;
  std::vector<double> p;
  std::vector<double> c;
  Kernel kernel = Kernel::linear();

  SmoProblem problem() {
    SmoProblem prob;
    prob.n = X.rows();
    prob.p = p;
    prob.y = y;
    prob.c = c;
    prob.kernel_row = [this](std::size_t i, std::span<double> out) {
      for (std::size_t j = 0; j < X.rows(); ++j) {
        out[j] = kernel(X.row(i), X.row(j));
      }
    };
    prob.kernel_diag = [this](std::size_t i) {
      return kernel(X.row(i), X.row(i));
    };
    return prob;
  }

  void add(double x0, double x1, int label) {
    X.append_row(std::vector<double>{x0, x1});
    y.push_back(static_cast<signed char>(label));
    p.push_back(-1.0);
    c.push_back(10.0);
  }

  double decision(const SmoResult& r, std::span<const double> x) {
    double f = -r.rho;
    for (std::size_t i = 0; i < X.rows(); ++i) {
      f += r.alpha[i] * static_cast<double>(y[i]) * kernel(X.row(i), x);
    }
    return f;
  }
};

TEST(Smo, SolvesTinySeparableProblem) {
  LinearProblemFixture fx;
  fx.add(2.0, 0.0, 1);
  fx.add(3.0, 1.0, 1);
  fx.add(-2.0, 0.0, -1);
  fx.add(-3.0, -1.0, -1);
  const auto result = solve_smo(fx.problem());
  EXPECT_TRUE(result.converged);
  // Equality constraint Σ y_i a_i = 0.
  double balance = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    balance += result.alpha[i] * static_cast<double>(fx.y[i]);
    EXPECT_GE(result.alpha[i], 0.0);
    EXPECT_LE(result.alpha[i], 10.0);
  }
  EXPECT_NEAR(balance, 0.0, 1e-9);
  // Correct sign on both sides.
  EXPECT_GT(fx.decision(result, std::vector<double>{2.5, 0.5}), 0.0);
  EXPECT_LT(fx.decision(result, std::vector<double>{-2.5, -0.5}), 0.0);
}

TEST(Smo, MarginIsMaximal) {
  // Two points at x = ±1: the maximum-margin hyperplane is x = 0 and the
  // analytic dual solution is alpha = [0.5, 0.5], w = 1, rho = 0.
  LinearProblemFixture fx;
  fx.add(1.0, 0.0, 1);
  fx.add(-1.0, 0.0, -1);
  const auto result = solve_smo(fx.problem());
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.alpha[0], 0.5, 1e-6);
  EXPECT_NEAR(result.alpha[1], 0.5, 1e-6);
  EXPECT_NEAR(result.rho, 0.0, 1e-6);
  EXPECT_NEAR(fx.decision(result, std::vector<double>{1.0, 0.0}), 1.0,
              1e-6);
}

TEST(Smo, KktConditionsHoldAtSolution) {
  // KKT complementarity on a random soft-margin problem:
  //   y_i f(x_i) > 1  =>  a_i = 0
  //   y_i f(x_i) < 1  =>  a_i = C
  //   0 < a_i < C     =>  y_i f(x_i) = 1
  Rng rng(21);
  LinearProblemFixture fx;
  for (int i = 0; i < 80; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    fx.add(rng.normal(label * 1.0, 1.5), rng.normal(0.0, 1.0), label);
  }
  for (auto& ci : fx.c) ci = 1.0;
  SmoConfig cfg;
  cfg.tolerance = 1e-4;
  const auto result = solve_smo(fx.problem(), cfg);
  EXPECT_TRUE(result.converged);
  const double kkt_tol = 1e-2;
  for (std::size_t i = 0; i < fx.X.rows(); ++i) {
    const double margin = static_cast<double>(fx.y[i]) *
                          fx.decision(result, fx.X.row(i));
    if (margin > 1.0 + kkt_tol) {
      EXPECT_NEAR(result.alpha[i], 0.0, 1e-9) << "row " << i;
    } else if (margin < 1.0 - kkt_tol) {
      EXPECT_NEAR(result.alpha[i], 1.0, 1e-9) << "row " << i;
    } else if (result.alpha[i] > 1e-6 && result.alpha[i] < 1.0 - 1e-6) {
      EXPECT_NEAR(margin, 1.0, kkt_tol) << "row " << i;
    }
  }
}

TEST(Smo, RbfSolvesNonlinearRing) {
  // Inner cluster vs outer ring — linearly inseparable, RBF separable.
  Rng rng(3);
  Matrix X;
  std::vector<signed char> y;
  for (int i = 0; i < 60; ++i) {
    const double angle = rng.uniform(0.0, 6.283);
    const double radius = i % 2 == 0 ? rng.uniform(0.0, 1.0)
                                     : rng.uniform(3.0, 4.0);
    X.append_row(std::vector<double>{radius * std::cos(angle),
                                     radius * std::sin(angle)});
    y.push_back(i % 2 == 0 ? 1 : -1);
  }
  const Kernel kernel = Kernel::rbf(0.5);
  std::vector<double> p(X.rows(), -1.0);
  std::vector<double> c(X.rows(), 100.0);
  SmoProblem prob;
  prob.n = X.rows();
  prob.p = p;
  prob.y = y;
  prob.c = c;
  prob.kernel_row = [&](std::size_t i, std::span<double> out) {
    for (std::size_t j = 0; j < X.rows(); ++j) {
      out[j] = kernel(X.row(i), X.row(j));
    }
  };
  prob.kernel_diag = [&](std::size_t i) {
    return kernel(X.row(i), X.row(i));
  };
  const auto result = solve_smo(prob);
  EXPECT_TRUE(result.converged);
  // All training points classified correctly.
  for (std::size_t i = 0; i < X.rows(); ++i) {
    double f = -result.rho;
    for (std::size_t j = 0; j < X.rows(); ++j) {
      f += result.alpha[j] * static_cast<double>(y[j]) *
           kernel(X.row(j), X.row(i));
    }
    EXPECT_GT(f * static_cast<double>(y[i]), 0.0);
  }
}

TEST(Smo, ObjectiveIsNegativeForNontrivialSolution) {
  LinearProblemFixture fx;
  fx.add(1.0, 0.0, 1);
  fx.add(-1.0, 0.0, -1);
  const auto result = solve_smo(fx.problem());
  // Dual objective 1/2 aQa - Σa at optimum is negative when any a > 0.
  EXPECT_LT(result.objective, 0.0);
}

TEST(Smo, IterationCapReported) {
  LinearProblemFixture fx;
  for (int i = 0; i < 20; ++i) {
    fx.add(static_cast<double>(i % 5), static_cast<double>(i % 3),
           i % 2 == 0 ? 1 : -1);
  }
  SmoConfig cfg;
  cfg.max_iterations = 1;
  const auto result = solve_smo(fx.problem(), cfg);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 1u);
}

TEST(Smo, ValidatesInputs) {
  SmoProblem empty;
  EXPECT_THROW(solve_smo(empty), InvalidArgument);
  LinearProblemFixture fx;
  fx.add(1.0, 0.0, 1);
  fx.add(-1.0, 0.0, -1);
  auto prob = fx.problem();
  prob.kernel_row = nullptr;
  EXPECT_THROW(solve_smo(prob), InvalidArgument);
  auto no_diag = fx.problem();
  no_diag.kernel_diag = nullptr;
  EXPECT_THROW(solve_smo(no_diag), InvalidArgument);
}

// Shrinking must be a pure optimization: the shrunk and unshrunk solvers
// have to land on the same solution (alphas, rho, objective) because the
// active-set heuristic only skips variables whose KKT conditions already
// pin them to a bound, and the gradient is reconstructed before the final
// convergence check.
TEST(Smo, ShrinkingMatchesUnshrunkSolver) {
  for (const std::uint64_t seed : {7u, 21u, 1234u}) {
    Rng rng(seed);
    Matrix X;
    std::vector<signed char> y;
    for (int i = 0; i < 120; ++i) {
      const int label = i % 2 == 0 ? 1 : -1;
      X.append_row(std::vector<double>{rng.normal(label * 0.8, 1.2),
                                       rng.normal(0.0, 1.0),
                                       rng.normal(label * 0.3, 0.7)});
      y.push_back(static_cast<signed char>(label));
    }
    std::vector<double> p(X.rows(), -1.0);
    std::vector<double> c(X.rows(), 10.0);
    const Kernel kernel = Kernel::rbf(0.4);
    const GramRowEngine engine(X, kernel);
    SmoProblem prob;
    prob.n = X.rows();
    prob.p = p;
    prob.y = y;
    prob.c = c;
    prob.kernel_row = [&engine](std::size_t i, std::span<double> out) {
      engine.fill_row(i, out);
    };
    prob.kernel_diag = [&engine](std::size_t i) {
      return engine.diagonal(i);
    };

    // Both arms run at a tight duality-gap tolerance: the RBF Gram matrix
    // on distinct points is strictly PD, so the dual optimum is unique
    // and both solvers must land on it — the default 1e-3 gap would leave
    // each arm at a different approximate solution.
    SmoConfig off;
    off.shrinking = false;
    off.tolerance = 1e-9;
    SmoConfig on;
    on.shrinking = true;
    on.tolerance = 1e-9;
    on.shrink_interval = 10;  // force many shrink passes on a small problem
    const auto r_off = solve_smo(prob, off);
    const auto r_on = solve_smo(prob, on);
    ASSERT_TRUE(r_off.converged);
    ASSERT_TRUE(r_on.converged);
    EXPECT_NEAR(r_on.rho, r_off.rho, 1e-6) << "seed " << seed;
    EXPECT_NEAR(r_on.objective, r_off.objective, 1e-6) << "seed " << seed;
    for (std::size_t i = 0; i < X.rows(); ++i) {
      EXPECT_NEAR(r_on.alpha[i], r_off.alpha[i], 1e-6)
          << "seed " << seed << " alpha " << i;
    }
  }
}

TEST(Smo, ShrinkingHandlesIterationCapWhileShrunk) {
  // Hitting the cap with variables still shrunk must reconstruct the
  // gradient so rho/objective are computed from a consistent state.
  Rng rng(5);
  Matrix X;
  std::vector<signed char> y;
  for (int i = 0; i < 60; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    X.append_row(std::vector<double>{rng.normal(label * 1.0, 1.0),
                                     rng.normal(0.0, 1.0)});
    y.push_back(static_cast<signed char>(label));
  }
  std::vector<double> p(X.rows(), -1.0);
  std::vector<double> c(X.rows(), 5.0);
  const Kernel kernel = Kernel::rbf(0.5);
  const GramRowEngine engine(X, kernel);
  SmoProblem prob;
  prob.n = X.rows();
  prob.p = p;
  prob.y = y;
  prob.c = c;
  prob.kernel_row = [&engine](std::size_t i, std::span<double> out) {
    engine.fill_row(i, out);
  };
  prob.kernel_diag = [&](std::size_t i) {
    return kernel(X.row(i), X.row(i));
  };
  SmoConfig cfg;
  cfg.shrinking = true;
  cfg.shrink_interval = 5;
  cfg.max_iterations = 40;
  const auto r = solve_smo(prob, cfg);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(std::isfinite(r.rho));
  EXPECT_TRUE(std::isfinite(r.objective));
}

// The contiguous passes run through the simd:: table while nothing is
// shrunk, and the indexed loops after a shrink pass.  Every table takes
// the same steps, so a solve under the scalar table and under AVX2 must
// agree bit for bit: alphas, rho, objective and iteration count.
// Callers skip when the AVX2 table is unavailable.
void expect_same_solve_on_every_table(const SmoProblem& prob,
                                      const SmoConfig& cfg) {
  const simd::Isa saved = simd::active();
  ASSERT_TRUE(simd::set_active(simd::Isa::kScalar));
  const auto scalar = solve_smo(prob, cfg);
  ASSERT_TRUE(simd::set_active(simd::Isa::kAvx2));
  const auto avx2 = solve_smo(prob, cfg);
  simd::set_active(saved);
  ASSERT_TRUE(scalar.converged);
  EXPECT_EQ(avx2.iterations, scalar.iterations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(avx2.rho),
            std::bit_cast<std::uint64_t>(scalar.rho));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(avx2.objective),
            std::bit_cast<std::uint64_t>(scalar.objective));
  ASSERT_EQ(avx2.alpha.size(), scalar.alpha.size());
  for (std::size_t t = 0; t < scalar.alpha.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(avx2.alpha[t]),
              std::bit_cast<std::uint64_t>(scalar.alpha[t]))
        << "alpha " << t;
  }
}

TEST(Smo, ShrunkSolveIdenticalOnEveryTable) {
  if (!simd::available(simd::Isa::kAvx2)) GTEST_SKIP() << "no AVX2 table";
  Rng rng(404);
  Matrix X;
  std::vector<signed char> y;
  for (int i = 0; i < 301; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    X.append_row(std::vector<double>{rng.normal(label * 0.6, 1.0),
                                     rng.normal(0.0, 1.0),
                                     rng.normal(label * 0.2, 0.8)});
    y.push_back(static_cast<signed char>(label));
  }
  std::vector<double> p(X.rows(), -1.0);
  std::vector<double> c(X.rows(), 10.0);
  // The Gram matrix is filled once, up front: the engine's rows round
  // differently per table, and this test pins the solver alone.
  const GramRowEngine engine(X, Kernel::rbf(0.5));
  Matrix gram(X.rows(), X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) engine.fill_row(i, gram.row(i));
  SmoProblem prob;
  prob.n = X.rows();
  prob.p = p;
  prob.y = y;
  prob.c = c;
  prob.kernel_row = [&gram](std::size_t i, std::span<double> out) {
    std::copy(gram.row(i).begin(), gram.row(i).end(), out.begin());
  };
  prob.kernel_diag = [&gram](std::size_t i) { return gram(i, i); };
  SmoConfig cfg;
  cfg.shrink_interval = 40;
  auto& shrinks = obs::MetricsRegistry::instance().counter("smo.shrink_passes");
  const auto before = shrinks.value();
  expect_same_solve_on_every_table(prob, cfg);
  // Both solves shrank, so the indexed loops ran as well.
  EXPECT_GT(shrinks.value(), before);
}

// Duplicated points on a small integer grid: with every alpha at 0 the
// I_up candidates all tie, and the partners' curvatures repeat, so the
// first-index rule picks every early working set.
TEST(Smo, TiedSelectionsIdenticalOnEveryTable) {
  if (!simd::available(simd::Isa::kAvx2)) GTEST_SKIP() << "no AVX2 table";
  LinearProblemFixture fx;
  for (int i = 0; i < 45; ++i) {
    const int label = i % 3 == 0 ? -1 : 1;
    fx.add(static_cast<double>(i % 4), static_cast<double>((i / 4) % 3),
           label);
  }
  for (auto& ci : fx.c) ci = 1.0;
  SmoConfig cfg;
  cfg.shrinking = false;
  expect_same_solve_on_every_table(fx.problem(), cfg);
}

// The solver's steps, pinned: a 120-point integer grid whose duplicated
// points tie the selections all through the solve, shrunk every 7
// iterations so the selection after each shrink pass decides among
// reordered ties.  The linear kernel on integers is exact, so the values
// below hold wherever the solver's own arithmetic rounds as written (no
// contraction).  They were recorded from the solver before its I_up
// maximum moved into the gradient pass and its loops into the simd
// table; any change to the order of its steps moves them.
TEST(Smo, TiedGridSolveTakesThePinnedSteps) {
  LinearProblemFixture fx;
  for (int i = 0; i < 120; ++i) {
    fx.add(static_cast<double>((i / 3) % 5), static_cast<double>((i / 2) % 4),
           i % 3 == 0 ? -1 : 1);
  }
  SmoConfig cfg;
  cfg.shrink_interval = 7;
  const auto r = solve_smo(fx.problem(), cfg);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 115u);
  EXPECT_EQ(r.objective, -0x1.8fffffffffffcp+9);
  EXPECT_EQ(r.rho, -0x1.0000000000001p+0);
}

TEST(SharedGramCache, SlicedRowsMatchDirectComputation) {
  Rng rng(17);
  Matrix X;
  for (int i = 0; i < 24; ++i) {
    X.append_row(std::vector<double>{rng.normal(0.0, 1.0),
                                     rng.normal(1.0, 2.0),
                                     rng.normal(-1.0, 0.5)});
  }
  const Kernel kernel = Kernel::rbf(0.3);
  // The float32 rows are one rounding away from the scalar kernel (well
  // inside the SMO tolerance); the diagonal stays full precision.
  constexpr double kTol = 1e-6;
  SharedGramCache cache(X, kernel, 4);  // force evictions
  for (std::size_t i = 0; i < X.rows(); ++i) {
    const auto row = cache.row(i);
    ASSERT_EQ(row->size(), X.rows());
    for (std::size_t j = 0; j < X.rows(); ++j) {
      EXPECT_NEAR((*row)[j], kernel(X.row(i), X.row(j)), kTol);
    }
    EXPECT_NEAR(cache.diagonal(i), kernel(X.row(i), X.row(i)), 1e-12);
  }
  // A row handed out before eviction stays valid afterwards.
  const auto pinned = cache.row(0);
  for (std::size_t i = 1; i < X.rows(); ++i) (void)cache.row(i);
  EXPECT_NEAR((*pinned)[5], kernel(X.row(0), X.row(5)), kTol);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(KernelRowCache, ComputesAndCaches) {
  int computations = 0;
  KernelRowCache cache(4, 2, [&](std::size_t i, std::span<double> out) {
    ++computations;
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] = static_cast<double>(i * 10 + j);
    }
  });
  const auto row1 = cache.row(1);
  EXPECT_DOUBLE_EQ(row1[3], 13.0);
  (void)cache.row(1);  // hit
  EXPECT_EQ(computations, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(KernelRowCache, EvictsLeastRecentlyUsed) {
  int computations = 0;
  KernelRowCache cache(4, 2, [&](std::size_t, std::span<double> out) {
    ++computations;
    for (auto& v : out) v = 0.0;
  });
  (void)cache.row(0);
  (void)cache.row(1);
  (void)cache.row(0);  // refresh 0; 1 becomes LRU
  (void)cache.row(2);  // evicts 1
  (void)cache.row(0);  // still cached
  EXPECT_EQ(computations, 3);
  (void)cache.row(1);  // must recompute
  EXPECT_EQ(computations, 4);
}

TEST(KernelRowCache, RejectsOutOfRange) {
  KernelRowCache cache(2, 2, [](std::size_t, std::span<double> out) {
    for (auto& v : out) v = 0.0;
  });
  EXPECT_THROW(cache.row(2), InvalidArgument);
}

}  // namespace
}  // namespace xdmodml::ml
