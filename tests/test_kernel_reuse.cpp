// Equivalence tests for the float32 kernel-row cache and the
// cross-grid/cross-fold kernel reuse path:
//  * SMO through the float32 cache agrees with the exact GramRowEngine
//    path on alphas/rho/objective to 1e-3 (binary solve and the
//    20-class one-vs-one fit) and on predicted labels exactly;
//  * a tuning sweep with the shared per-γ cache produces a (γ, C)
//    accuracy table bit-identical to per-cell refits;
//  * the cache's degraded modes (compute-without-caching under the
//    budget failpoint, and evict-and-retry after allocation faults) are
//    bit-identical to the cached fast path — degradation changes cost,
//    never answers.
#include "ml/cross_validation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ml/kernel.hpp"
#include "ml/smo.hpp"
#include "ml/svm.hpp"
#include "util/failpoint.hpp"
#include "util/matrix.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml {
namespace {

/// `classes` Gaussian blobs in `dims` dimensions, `per_class` rows each.
Dataset make_class_blobs(int classes, std::size_t per_class,
                         std::size_t dims, double separation,
                         std::uint64_t seed) {
  Dataset ds;
  Rng rng(seed);
  for (int c = 0; c < classes; ++c) {
    ds.class_names.push_back("class-" + std::to_string(c));
    for (std::size_t i = 0; i < per_class; ++i) {
      std::vector<double> row(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        // Spread the class centres over a d-dimensional lattice so 20
        // classes stay separable in 6 dimensions.
        const double centre =
            separation * (((c >> (d % 5)) & 1) ? 1.0 : -1.0) +
            0.3 * separation * static_cast<double>(c % 3);
        row[d] = rng.normal(centre, 1.0);
      }
      ds.X.append_row(row);
      ds.labels.push_back(c);
    }
  }
  for (std::size_t d = 0; d < dims; ++d) {
    std::string name = "f";
    name += std::to_string(d);
    ds.feature_names.push_back(std::move(name));
  }
  return ds;
}

// The binary problem both solve_* helpers pose: RBF(0.3), C = 10.  A
// tight gap pins the (strictly-convex) dual optimum so the float32 cache
// and the exact path converge to comparable solutions, not merely to two
// different points inside a loose 1e-3 KKT window.
SmoResult solve_rbf(const Matrix& X, std::span<const signed char> y,
                    SmoProblem prob) {
  std::vector<double> p(X.rows(), -1.0);
  std::vector<double> c(X.rows(), 10.0);
  prob.n = X.rows();
  prob.p = p;
  prob.y = y;
  prob.c = c;
  SmoConfig cfg;
  cfg.tolerance = 1e-6;
  return solve_smo(prob, cfg);
}

SmoResult solve_through_cache(const Matrix& X,
                              std::span<const signed char> y) {
  SharedGramCache cache(X, Kernel::rbf(0.3), X.rows());
  SmoProblem prob;
  prob.kernel_row = [&cache](std::size_t i, std::span<double> out) {
    const auto row = cache.row(i);
    for (std::size_t j = 0; j < row->size(); ++j) out[j] = (*row)[j];
  };
  prob.kernel_diag = [&cache](std::size_t i) { return cache.diagonal(i); };
  return solve_rbf(X, y, std::move(prob));
}

SmoResult solve_exact(const Matrix& X, std::span<const signed char> y) {
  const GramRowEngine engine(X, Kernel::rbf(0.3));
  SmoProblem prob;
  prob.kernel_row = [&engine](std::size_t i, std::span<double> out) {
    engine.fill_row(i, out);
  };
  prob.kernel_diag = [&engine](std::size_t i) { return engine.diagonal(i); };
  return solve_rbf(X, y, std::move(prob));
}

TEST(Float32CacheEquivalence, BinarySmoAgreesWithExactEngine) {
  Rng rng(31);
  Matrix X;
  std::vector<signed char> y;
  for (int i = 0; i < 90; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    X.append_row(std::vector<double>{rng.normal(label * 1.2, 1.0),
                                     rng.normal(0.0, 1.0),
                                     rng.normal(label * 0.4, 0.8)});
    y.push_back(static_cast<signed char>(label));
  }
  const auto exact = solve_exact(X, y);
  const auto r32 = solve_through_cache(X, y);
  ASSERT_TRUE(exact.converged);
  ASSERT_TRUE(r32.converged);
  EXPECT_NEAR(r32.rho, exact.rho, 1e-3);
  EXPECT_NEAR(r32.objective, exact.objective, 1e-3);
  for (std::size_t i = 0; i < X.rows(); ++i) {
    EXPECT_NEAR(r32.alpha[i], exact.alpha[i], 1e-3) << "alpha " << i;
  }
}

TEST(Float32CacheEquivalence, TwentyClassOvoFitAgreesWithExactEngine) {
  const auto ds = make_class_blobs(20, 12, 6, 4.0, 77);
  const auto probes = make_class_blobs(20, 5, 6, 4.0, 78);

  // The shared float32 cache against one exact GramRowEngine per machine.
  auto fit_with = [&](bool shared_float32_cache) {
    SvmConfig cfg;
    cfg.kernel = Kernel::rbf(0.1);
    cfg.c = 10.0;
    // Pin the dual optimum: at the default 1e-3 KKT window each arm can
    // legitimately stop at a different interior point, which is solver
    // slack, not cache-precision error.
    cfg.smo.tolerance = 1e-8;
    cfg.share_kernel_cache = shared_float32_cache;
    SvmClassifier clf(cfg, 5);
    clf.fit(ds.X, ds.labels, 20);
    return clf;
  };
  const auto clf32 = fit_with(true);
  const auto clf_exact = fit_with(false);

  // Per-machine solver outputs agree within the SMO tolerance budget.
  ASSERT_EQ(clf32.num_machines(), clf_exact.num_machines());
  for (std::size_t m = 0; m < clf32.num_machines(); ++m) {
    const auto& a = clf32.machine(m);
    const auto& b = clf_exact.machine(m);
    EXPECT_NEAR(a.rho(), b.rho(), 1e-3) << "machine " << m;
    ASSERT_EQ(a.num_support_vectors(), b.num_support_vectors())
        << "machine " << m;
    const auto ca = a.coefficients();
    const auto cb = b.coefficients();
    for (std::size_t s = 0; s < ca.size(); ++s) {
      EXPECT_NEAR(ca[s], cb[s], 1e-3) << "machine " << m << " coef " << s;
    }
  }

  // Labels agree exactly; coupled probabilities within the tolerance.
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto x = probes.X.row(i);
    EXPECT_EQ(clf32.predict(x), clf_exact.predict(x)) << "probe " << i;
    const auto p32 = clf32.predict_proba(x);
    const auto p_exact = clf_exact.predict_proba(x);
    ASSERT_EQ(p32.size(), p_exact.size());
    for (std::size_t k = 0; k < p32.size(); ++k) {
      EXPECT_NEAR(p32[k], p_exact[k], 1e-3) << "probe " << i << " class " << k;
    }
  }
}

// --- Degraded-mode differentials ------------------------------------
//
// The cached path and both degraded paths (failpoint-forced uncached
// rows, evict-and-retry after allocation faults) all fill rows through
// the same compute_row helper, so the solver must see bit-identical Gram
// values and produce bit-identical results.  These assert EXPECT_EQ on
// doubles deliberately.

TEST(GramCacheDegradedPaths, BudgetFailpointForcesUncachedIdenticalSolve) {
  Rng rng(58);
  Matrix X;
  std::vector<signed char> y;
  for (int i = 0; i < 70; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    X.append_row(std::vector<double>{rng.normal(label * 1.2, 1.0),
                                     rng.normal(0.0, 1.0)});
    y.push_back(static_cast<signed char>(label));
  }
  const auto cached = solve_through_cache(X, y);

  const auto before = obs::MetricsRegistry::instance().snapshot();
  fp::reset();
  fp::arm("gram_cache.budget", fp::Policy::parse("return"));
  const auto degraded = solve_through_cache(X, y);
  fp::reset();
  const auto after = obs::MetricsRegistry::instance().snapshot();

  // Every row was computed without caching...
  EXPECT_GT(after.counter("gram_cache.uncached_rows") -
                before.counter("gram_cache.uncached_rows"),
            0u);
  // ...and the answers did not move by a single bit.
  EXPECT_EQ(degraded.rho, cached.rho);
  EXPECT_EQ(degraded.objective, cached.objective);
  for (std::size_t i = 0; i < cached.alpha.size(); ++i) {
    EXPECT_EQ(degraded.alpha[i], cached.alpha[i]) << "alpha " << i;
  }
}

TEST(GramCacheDegradedPaths, AllocFaultsRecoverByEvictAndRetry) {
  Rng rng(59);
  Matrix X;
  std::vector<signed char> y;
  for (int i = 0; i < 70; ++i) {
    const int label = i % 2 == 0 ? 1 : -1;
    X.append_row(std::vector<double>{rng.normal(label * 1.2, 1.0),
                                     rng.normal(0.0, 1.0)});
    y.push_back(static_cast<signed char>(label));
  }
  const auto clean = solve_through_cache(X, y);

  const auto before = obs::MetricsRegistry::instance().snapshot();
  fp::reset();
  fp::arm("gram_cache.alloc", fp::Policy::parse("one_in(3):error(1)"), 11);
  const auto faulted = solve_through_cache(X, y);
  const auto triggers = fp::site_stats("gram_cache.alloc").triggers;
  fp::reset();
  const auto after = obs::MetricsRegistry::instance().snapshot();

  // The schedule really injected allocation failures, every one was
  // absorbed by evict-and-retry, and the solve still matches exactly.
  EXPECT_GT(triggers, 0u);
  EXPECT_EQ(after.counter("fail.gram_cache.alloc") -
                before.counter("fail.gram_cache.alloc"),
            triggers);
  EXPECT_EQ(after.counter("retry.gram_cache.evict_retry") -
                before.counter("retry.gram_cache.evict_retry"),
            triggers);
  EXPECT_EQ(faulted.rho, clean.rho);
  EXPECT_EQ(faulted.objective, clean.objective);
  for (std::size_t i = 0; i < clean.alpha.size(); ++i) {
    EXPECT_EQ(faulted.alpha[i], clean.alpha[i]) << "alpha " << i;
  }
}

TEST(GramCacheDegradedPaths, OvoFitUnderBudgetFaultMatchesCachedFit) {
  const auto ds = make_class_blobs(5, 14, 4, 4.0, 83);
  const auto probes = make_class_blobs(5, 6, 4, 4.0, 84);
  auto fit = [&] {
    SvmConfig cfg;
    cfg.kernel = Kernel::rbf(0.1);
    cfg.c = 10.0;
    cfg.smo.tolerance = 1e-8;
    SvmClassifier clf(cfg, 5);
    clf.fit(ds.X, ds.labels, 5);
    return clf;
  };
  const auto clf_cached = fit();
  fp::reset();
  fp::arm("gram_cache.budget", fp::Policy::parse("return"));
  const auto clf_degraded = fit();
  fp::reset();

  ASSERT_EQ(clf_degraded.num_machines(), clf_cached.num_machines());
  for (std::size_t m = 0; m < clf_cached.num_machines(); ++m) {
    const auto& a = clf_degraded.machine(m);
    const auto& b = clf_cached.machine(m);
    EXPECT_NEAR(a.rho(), b.rho(), 1e-3) << "machine " << m;
    const auto ca = a.coefficients();
    const auto cb = b.coefficients();
    ASSERT_EQ(ca.size(), cb.size()) << "machine " << m;
    for (std::size_t s = 0; s < ca.size(); ++s) {
      EXPECT_NEAR(ca[s], cb[s], 1e-3) << "machine " << m << " coef " << s;
    }
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(clf_degraded.predict(probes.X.row(i)),
              clf_cached.predict(probes.X.row(i)))
        << "probe " << i;
  }
}

TEST(KernelReuse, SharedCacheGridSearchMatchesPerCellRefits) {
  const auto ds = make_class_blobs(3, 40, 2, 5.0, 91);
  const std::vector<double> gammas{0.05, 0.5};
  const std::vector<double> cs{1.0, 10.0, 100.0};

  SvmGridSearchOptions reuse;
  reuse.reuse_kernel_cache = true;
  SvmGridSearchOptions refit = reuse;
  refit.reuse_kernel_cache = false;

  const auto with_reuse = svm_grid_search(ds, gammas, cs, reuse);
  const auto with_refit = svm_grid_search(ds, gammas, cs, refit);
  ASSERT_EQ(with_reuse.size(), with_refit.size());
  // Reuse is pure plumbing: the per-γ shared cache hands every cell the
  // same Gram values a per-cell cache would compute, so the table is
  // bit-identical — including the best-first tie ordering.
  for (std::size_t i = 0; i < with_reuse.size(); ++i) {
    EXPECT_EQ(with_reuse[i].gamma, with_refit[i].gamma) << "point " << i;
    EXPECT_EQ(with_reuse[i].c, with_refit[i].c) << "point " << i;
    EXPECT_EQ(with_reuse[i].cv_accuracy, with_refit[i].cv_accuracy)
        << "point " << i;
  }
}

TEST(KernelReuse, FoldAssignmentIsSharedAcrossGridCells) {
  // Two sweeps over disjoint single-cell grids with the same seed must
  // score a shared cell identically: the fold split (and the
  // standardizer) depend only on (dataset, folds, seed), never on the
  // cell being evaluated — the hoisted-RNG fix.
  const auto ds = make_class_blobs(3, 30, 2, 5.0, 92);
  const std::vector<double> g1{0.5};
  const std::vector<double> g2{0.05, 0.5};
  const std::vector<double> cs{10.0};
  SvmGridSearchOptions opts;
  const auto small = svm_grid_search(ds, g1, cs, opts);
  const auto large = svm_grid_search(ds, g2, cs, opts);
  ASSERT_EQ(small.size(), 1u);
  for (const auto& pt : large) {
    if (pt.gamma == 0.5 && pt.c == 10.0) {
      EXPECT_EQ(pt.cv_accuracy, small.front().cv_accuracy);
    }
  }
}

}  // namespace
}  // namespace xdmodml::ml
