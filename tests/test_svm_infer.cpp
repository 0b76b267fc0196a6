// Differential tests for the compiled SVM inference plan (ml/svm_plan):
// the plan (deduplicated support-vector pool + SIMD kernel rows + sparse
// per-machine reduction) must agree with the per-machine reference walk
// (BinarySvm::decision_value, then Platt and pairwise coupling) across
// kernels, ISAs, batch shapes, serialization round trips, the old-stream
// loader and threads sharing one plan, and the batched path (query tiles
// + batched reduce) must equal the single-query path bit for bit.
// Registered under the `tier1-infer` ctest label, plus an
// XDMODML_SIMD=scalar environment rerun.
#include "ml/svm_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ml/model_io.hpp"
#include "ml/svm.hpp"
#include "svm_v1_stream.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {
namespace {

/// Restores the SIMD ISA on scope exit so one test's choice cannot leak
/// into another.
class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa) : prev_(simd::active()) {
    simd::set_active(isa);
  }
  ~IsaGuard() { simd::set_active(prev_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  simd::Isa prev_;
};

// Five features so the SIMD 4-lane kernels exercise a remainder lane.
void make_blobs5(std::size_t per_class, std::size_t classes, Matrix& X,
                 std::vector<int>& y, std::uint64_t seed = 1) {
  Rng rng(seed);
  for (std::size_t c = 0; c < classes; ++c) {
    const double cx = 3.5 * static_cast<double>(c);
    for (std::size_t i = 0; i < per_class; ++i) {
      X.append_row(std::vector<double>{
          rng.normal(cx, 0.8), rng.normal(cx * 0.5, 0.8),
          rng.normal(-cx, 0.8), rng.normal(0.0, 0.8),
          rng.normal(cx * 0.25, 0.8)});
      y.push_back(static_cast<int>(c));
    }
  }
}

Matrix probe_rows(std::size_t n, std::uint64_t seed = 77) {
  Rng rng(seed);
  Matrix probes;
  for (std::size_t i = 0; i < n; ++i) {
    const double cx = 3.5 * static_cast<double>(i % 3);
    probes.append_row(std::vector<double>{
        rng.normal(cx, 1.2), rng.normal(cx * 0.5, 1.2),
        rng.normal(-cx, 1.2), rng.normal(0.0, 1.2),
        rng.normal(cx * 0.25, 1.2)});
  }
  return probes;
}

SvmClassifier train_blobs(SvmConfig cfg, std::size_t classes = 3,
                          std::size_t per_class = 25) {
  Matrix X;
  std::vector<int> y;
  make_blobs5(per_class, classes, X, y);
  SvmClassifier clf(cfg, 5);
  clf.fit(X, y, static_cast<int>(classes));
  return clf;
}

SvmConfig infer_config(Kernel kernel, bool probability) {
  SvmConfig cfg;
  cfg.kernel = kernel;
  cfg.c = 10.0;
  cfg.probability = probability;
  cfg.platt_cv_folds = 2;
  return cfg;
}

/// The per-machine reference walk, built like pipebench's
/// reference_predict: each machine's BinarySvm::decision_value, then the
/// clipped Platt probabilities coupled pairwise — or, without Platt,
/// vote fractions.  `label` follows predict's rule and `votes` the
/// hard-vote rule (lowest class wins ties).
struct Reference {
  std::vector<double> proba;
  int label = 0;
  int votes = 0;
};

Reference reference_predict(const SvmClassifier& clf,
                            std::span<const double> x, bool probability) {
  const auto k = static_cast<std::size_t>(clf.num_classes());
  Matrix pairwise(k, k, 0.0);
  std::vector<double> votes(k, 0.0);
  std::size_t idx = 0;  // machines are stored in lexicographic (a, b) order
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++idx) {
      const auto& machine = clf.machine(idx);
      const double f = machine.decision_value(x);
      ++votes[f > 0.0 ? a : b];
      if (probability) {
        const double r = std::clamp(machine.sigmoid().probability(f), 1e-7,
                                    1.0 - 1e-7);
        pairwise(a, b) = r;
        pairwise(b, a) = 1.0 - r;
      }
    }
  }
  Reference ref;
  ref.votes = static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                               votes.begin());
  if (probability) {
    ref.proba = couple_pairwise_probabilities(pairwise);
  } else {
    for (auto& v : votes) v /= static_cast<double>(idx);
    ref.proba = votes;
  }
  ref.label = static_cast<int>(
      std::max_element(ref.proba.begin(), ref.proba.end()) -
      ref.proba.begin());
  return ref;
}

// The core differential: for every kernel family, plan labels / vote
// labels match the reference walk exactly and decision values /
// probabilities agree to 1e-10 (the plan's RBF path evaluates
// exp(−γ(‖x‖²+‖y‖²−2x·y)) instead of exp(−γ‖x−y‖²), so bit-equality is
// not expected).
TEST(SvmInferDifferential, PlanMatchesReferenceAcrossKernels) {
  const std::vector<Kernel> kernels = {
      Kernel::rbf(0.3), Kernel::linear(), Kernel::polynomial(3.0, 0.5, 1.0)};
  const Matrix probes = probe_rows(12);
  for (const auto& kernel : kernels) {
    for (const bool probability : {true, false}) {
      const auto clf = train_blobs(infer_config(kernel, probability));
      const auto& plan = clf.inference_plan();
      std::vector<double> krow(plan.unique_support_vectors());
      for (std::size_t p = 0; p < probes.rows(); ++p) {
        const auto x = probes.row(p);
        // Per-machine decision values.
        plan.kernel_row(x, krow);
        for (std::size_t m = 0; m < clf.num_machines(); ++m) {
          const double reference = clf.machine(m).decision_value(x);
          EXPECT_NEAR(plan.decision_value(m, krow), reference, 1e-10)
              << kernel.name() << " machine " << m << " probe " << p;
        }
        // End-to-end labels, votes and probabilities.
        const auto ref = reference_predict(clf, x, probability);
        EXPECT_EQ(clf.predict(x), ref.label);
        EXPECT_EQ(clf.predict_by_votes(x), ref.votes);
        const auto proba = clf.predict_proba(x);
        ASSERT_EQ(proba.size(), ref.proba.size());
        for (std::size_t c = 0; c < proba.size(); ++c) {
          EXPECT_NEAR(proba[c], ref.proba[c], 1e-10)
              << kernel.name() << " class " << c << " probe " << p;
        }
      }
    }
  }
}

// The scalar ISA must reproduce the vector ISA through the plan (both
// run the same norm-expansion math; only rounding differs).
TEST(SvmInferDifferential, ScalarIsaMatchesVectorIsa) {
  if (!simd::available(simd::Isa::kAvx2)) GTEST_SKIP() << "scalar-only build";
  const auto clf = train_blobs(infer_config(Kernel::rbf(0.3), true));
  const Matrix probes = probe_rows(8);
  std::vector<std::vector<double>> vec_proba;
  {
    IsaGuard isa(simd::Isa::kAvx2);
    for (std::size_t p = 0; p < probes.rows(); ++p) {
      vec_proba.push_back(clf.predict_proba(probes.row(p)));
    }
  }
  IsaGuard isa(simd::Isa::kScalar);
  for (std::size_t p = 0; p < probes.rows(); ++p) {
    const auto proba = clf.predict_proba(probes.row(p));
    for (std::size_t c = 0; c < proba.size(); ++c) {
      EXPECT_NEAR(proba[c], vec_proba[p][c], 1e-10);
    }
  }
}

// The batched sweep evaluates each query independently of its block, so
// batch results are bit-identical to the single-row compiled calls.
TEST(SvmInferBatch, BatchMatchesSingleExactly) {
  for (const bool probability : {true, false}) {
    const auto clf =
        train_blobs(infer_config(Kernel::rbf(0.3), probability));
    // 13 rows: exercises a partial trailing query block (13 = 8 + 5).
    const Matrix probes = probe_rows(13);
    const auto batch_labels = clf.predict_batch(probes);
    const auto batch_proba = clf.predict_proba_batch(probes);
    const auto batch_pred = clf.predict_batch_with_probability(probes);
    ASSERT_EQ(batch_labels.size(), probes.rows());
    ASSERT_EQ(batch_proba.size(), probes.rows());
    ASSERT_EQ(batch_pred.size(), probes.rows());
    for (std::size_t p = 0; p < probes.rows(); ++p) {
      const auto x = probes.row(p);
      EXPECT_EQ(batch_labels[p], clf.predict(x));
      const auto single = clf.predict_proba(x);
      ASSERT_EQ(batch_proba[p].size(), single.size());
      for (std::size_t c = 0; c < single.size(); ++c) {
        EXPECT_DOUBLE_EQ(batch_proba[p][c], single[c]);
      }
      const auto pred = clf.predict_with_probability(x);
      EXPECT_EQ(batch_pred[p].label, pred.label);
      EXPECT_DOUBLE_EQ(batch_pred[p].probability, pred.probability);
    }
  }
}

// Every row of every batch shape — empty, a lone row, partial and full
// tiles, many tiles — gets exactly the single-row label, probability
// and probability vector, across kernels, with and without Platt.
TEST(SvmInferBatch, BatchEqualsSingleForEveryShape) {
  const std::vector<Kernel> kernels = {
      Kernel::rbf(0.3), Kernel::linear(), Kernel::polynomial(3.0, 0.5, 1.0)};
  const Matrix all = probe_rows(513, 91);
  for (const auto& kernel : kernels) {
    for (const bool probability : {true, false}) {
      const auto clf = train_blobs(infer_config(kernel, probability));
      for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 11u, 13u, 64u,
                                  513u}) {
        SCOPED_TRACE(kernel.name() + " probability=" +
                     std::to_string(probability) + " n=" + std::to_string(n));
        Matrix X(n, all.cols());
        for (std::size_t r = 0; r < n; ++r) {
          std::copy(all.row(r).begin(), all.row(r).end(), X.row(r).begin());
        }
        const auto preds = clf.predict_batch_with_probability(X);
        const auto proba = clf.predict_proba_batch(X);
        const auto labels = clf.predict_batch(X);
        ASSERT_EQ(preds.size(), n);
        ASSERT_EQ(proba.size(), n);
        ASSERT_EQ(labels.size(), n);
        std::size_t mismatches = 0;
        for (std::size_t r = 0; r < n; ++r) {
          const auto single = clf.predict_with_probability(X.row(r));
          mismatches += preds[r].label != single.label ||
                        preds[r].probability != single.probability ||
                        proba[r] != clf.predict_proba(X.row(r)) ||
                        labels[r] != clf.predict(X.row(r));
        }
        EXPECT_EQ(mismatches, 0u);
      }
    }
  }
}

// A row's result does not depend on which batch it rides in or where.
TEST(SvmInferBatch, RowResultIndependentOfBatchAndPosition) {
  const auto clf = train_blobs(infer_config(Kernel::rbf(0.3), true));
  const Matrix probe = probe_rows(1, 5);
  const Matrix others = probe_rows(40, 9);
  const auto reference = clf.predict_proba(probe.row(0));
  const std::pair<std::size_t, std::size_t> placements[] = {
      {1, 0}, {2, 1}, {8, 0}, {8, 7}, {9, 8}, {16, 3}, {16, 12}, {40, 21}};
  for (const auto& [n, pos] : placements) {
    Matrix X(n, others.cols());
    for (std::size_t r = 0; r < n; ++r) {
      const auto src = r == pos ? probe.row(0) : others.row(r);
      std::copy(src.begin(), src.end(), X.row(r).begin());
    }
    EXPECT_EQ(clf.predict_proba_batch(X)[pos], reference)
        << "batch of " << n << " at row " << pos;
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A crafted three-class model whose machines each use all `pool_rows`
/// distinct random rows of `dims` features (shuffled per machine, own
/// coefficients), loaded from a v1 stream so the plan content-dedups
/// them to exactly `pool_rows` pool rows.
SvmClassifier crafted_model(const Kernel& kernel, std::size_t pool_rows,
                            std::size_t dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> pool(pool_rows, std::vector<double>(dims));
  for (auto& row : pool) {
    for (auto& v : row) v = rng.normal(0.0, 1.0);
  }
  std::ostringstream out;
  io::write_tag(out, "svm-ovo-v1");
  io::write_scalar(out, "classes", std::int64_t{3});
  io::write_scalar(out, "probability", std::int64_t{1});
  io::write_scalar(out, "machines", std::int64_t{3});
  for (int m = 0; m < 3; ++m) {
    io::write_tag(out, "binary-svm-v1");
    io::write_scalar(out, "kernel_type", static_cast<std::int64_t>(kernel.type));
    io::write_scalar(out, "gamma", kernel.gamma);
    io::write_scalar(out, "degree", kernel.degree);
    io::write_scalar(out, "coef0", kernel.coef0);
    io::write_scalar(out, "rho", rng.normal(0.0, 0.5));
    io::write_scalar(out, "has_platt", std::int64_t{1});
    io::write_scalar(out, "platt_a", -1.0 - rng.uniform());
    io::write_scalar(out, "platt_b", rng.normal(0.0, 0.2));
    io::write_scalar(out, "svs", static_cast<std::int64_t>(pool_rows));
    io::write_scalar(out, "dims", static_cast<std::int64_t>(dims));
    std::vector<double> coef(pool_rows);
    for (auto& c : coef) c = rng.normal(0.0, 1.0);
    io::write_vector(out, "coef", coef);
    std::vector<std::size_t> order(pool_rows);
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(order);
    for (const auto r : order) io::write_vector(out, "sv", pool[r]);
  }
  std::istringstream in(out.str());
  return SvmClassifier::load(in);
}

// The tile and the batched reduce reproduce the single-query kernel row
// and decision values bit for bit in every lane, for every tile fill,
// for pools that end mid-panel (the panels hold 8 rows) and for 1, 5 and
// 48 features (the served schema's width); and those values match the
// per-machine reference walk.
TEST(SvmInferTile, TileAndReduceEqualKernelRowAndDecisionValue) {
  const std::vector<Kernel> kernels = {
      Kernel::rbf(0.3), Kernel::linear(), Kernel::polynomial(3.0, 0.2, 1.0),
      Kernel::polynomial(2.5, 0.05, 4.0)};
  std::uint64_t seed = 100;
  for (const auto& kernel : kernels) {
    for (const std::size_t dims : {1u, 5u, 48u}) {
      for (const std::size_t pool : {1u, 7u, 8u, 9u, 17u, 36u}) {
        SCOPED_TRACE(kernel.name() + " dims=" + std::to_string(dims) +
                     " pool=" + std::to_string(pool));
        const auto clf = crafted_model(kernel, pool, dims, ++seed);
        const auto& plan = clf.inference_plan();
        ASSERT_EQ(plan.unique_support_vectors(), pool);
        Rng rng(seed);
        Matrix queries(simd::kTileQueries, dims);
        for (auto& v : queries.data()) v = rng.normal(0.0, 1.0);
        auto tile = plan.make_tile();
        std::vector<double> krow(pool);
        std::vector<double> lanes(plan.num_machines() * simd::kTileQueries);
        std::size_t mismatches = 0;
        for (std::size_t b = 1; b <= simd::kTileQueries; ++b) {
          plan.kernel_tile(queries.row(0).data(), b, tile);
          plan.decision_values(tile, lanes.data());
          for (std::size_t q = 0; q < b; ++q) {
            const auto x = queries.row(q);
            plan.kernel_row(x, krow);
            for (std::size_t j = 0; j < pool; ++j) {
              mismatches +=
                  !same_bits(tile.krows[j * simd::kTileQueries + q], krow[j]);
            }
            for (std::size_t m = 0; m < plan.num_machines(); ++m) {
              const double f = plan.decision_value(m, krow);
              mismatches +=
                  !same_bits(lanes[m * simd::kTileQueries + q], f);
              double mag = 1.0;
              const auto& slice = plan.machine(m);
              for (std::size_t s = 0; s < slice.coef.size(); ++s) {
                mag += std::abs(slice.coef[s] * krow[slice.sv_pool_idx[s]]);
              }
              EXPECT_NEAR(f, clf.machine(m).decision_value(x), 1e-12 * mag);
            }
          }
        }
        EXPECT_EQ(mismatches, 0u);
      }
    }
  }
}

// Fit and serve share one sweep: the plan's kernel row is the probe row
// of a GramRowEngine packed from a Matrix of the same rows, bit for bit,
// for every kernel family.  1 203 = 150·8 + 3 rows end in a padded
// panel.
TEST(SvmInferPlan, KernelRowEqualsEngineProbeRow) {
  const std::vector<Kernel> kernels = {
      Kernel::linear(), Kernel::rbf(0.1), Kernel::polynomial(3.0, 0.05, 1.0),
      Kernel::polynomial(2.5, 0.01, 30.0)};
  const std::size_t pool = 1203;
  const std::size_t dims = 48;
  std::uint64_t seed = 300;
  for (const auto& kernel : kernels) {
    SCOPED_TRACE(kernel.name());
    const auto clf = crafted_model(kernel, pool, dims, ++seed);
    const auto& plan = clf.inference_plan();
    ASSERT_EQ(plan.unique_support_vectors(), pool);
    Matrix rows(pool, dims);
    for (std::size_t j = 0; j < pool; ++j) {
      clf.machine(0).pool()->row(j, rows.row(j).data());
    }
    const GramRowEngine engine(rows, kernel);
    Rng rng(seed);
    std::vector<double> x(dims);
    std::vector<double> served(pool);
    std::vector<double> probe(pool);
    std::size_t mismatches = 0;
    for (int q = 0; q < 3; ++q) {
      for (auto& v : x) v = rng.normal(0.0, 1.0);
      plan.kernel_row(x, served);
      engine.fill_row_for(x, probe);
      for (std::size_t j = 0; j < pool; ++j) {
        mismatches += !same_bits(served[j], probe[j]);
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(SvmInferTile, RejectsBadTileShapes) {
  const auto clf = train_blobs(infer_config(Kernel::rbf(0.3), false));
  const auto& plan = clf.inference_plan();
  auto tile = plan.make_tile();
  const Matrix probes = probe_rows(simd::kTileQueries + 1);
  EXPECT_THROW(plan.kernel_tile(probes.row(0).data(), 0, tile),
               InvalidArgument);
  EXPECT_THROW(plan.kernel_tile(probes.row(0).data(), simd::kTileQueries + 1,
                                tile),
               InvalidArgument);
  const auto other = crafted_model(Kernel::rbf(0.3), 3, 4, 7);
  auto foreign = other.inference_plan().make_tile();
  EXPECT_THROW(plan.kernel_tile(probes.row(0).data(), 1, foreign),
               InvalidArgument);
}

TEST(SvmInferPlan, DedupStats) {
  const auto clf = train_blobs(infer_config(Kernel::rbf(0.3), true));
  const auto& plan = clf.inference_plan();
  EXPECT_EQ(plan.total_support_vectors(), clf.total_support_vectors());
  EXPECT_LE(plan.unique_support_vectors(), plan.total_support_vectors());
  EXPECT_GE(plan.dedup_ratio(), 1.0);
  EXPECT_EQ(plan.dims(), 5u);
  EXPECT_EQ(plan.pool_bytes(),
            plan.unique_support_vectors() * 5 * sizeof(double));
  // A 3-class one-vs-one fit reuses training rows across pairs; some
  // dedup must happen for the pool to be worth building.
  EXPECT_LT(plan.unique_support_vectors(), plan.total_support_vectors());
  // Every machine reads the plan's one pool.
  for (std::size_t m = 0; m < clf.num_machines(); ++m) {
    EXPECT_EQ(clf.machine(m).pool(), clf.machine(0).pool());
  }
}

TEST(SvmInferPlan, RoundTripPreservesUniqueCount) {
  // The stream stores the pool itself, so a reloaded model has the
  // pool it was saved with — whether the fit shared one Gram cache
  // across its machines or gave each its own kernel rows.
  for (const bool share : {true, false}) {
    SCOPED_TRACE(share ? "shared cache" : "per-machine kernels");
    auto cfg = infer_config(Kernel::rbf(0.3), true);
    cfg.share_kernel_cache = share;
    const auto clf = train_blobs(cfg);
    const auto& plan = clf.inference_plan();
    std::stringstream stream;
    clf.save(stream);
    const auto loaded = SvmClassifier::load(stream);
    const auto& reloaded = loaded.inference_plan();
    EXPECT_EQ(reloaded.unique_support_vectors(),
              plan.unique_support_vectors());
    EXPECT_EQ(reloaded.total_support_vectors(),
              plan.total_support_vectors());
  }
}

// A crafted v1 stream (no full_rows) must still load, and its pool must
// content-dedup the shared support vector across machines.
TEST(SvmInferPlan, V1StreamLoadsAndContentDedups) {
  const auto machine = [](double rho) {
    return "binary-svm-v1\nkernel_type 1\ngamma 0.5\ndegree 3\ncoef0 0\n"
           "rho " +
           std::to_string(rho) +
           "\nhas_platt 1\nplatt_a -2\nplatt_b 0\nsvs 1\ndims 2\n"
           "coef 1 1\nsv 2 1 2\n";
  };
  std::stringstream stream("svm-ovo-v1\nclasses 3\nprobability 1\n"
                           "machines 3\n" +
                           machine(0.1) + machine(0.2) + machine(0.3));
  const auto clf = SvmClassifier::load(stream);
  const auto& plan = clf.inference_plan();
  EXPECT_EQ(plan.total_support_vectors(), 3u);
  EXPECT_EQ(plan.unique_support_vectors(), 1u);
  EXPECT_NEAR(plan.dedup_ratio(), 3.0, 1e-12);
  const std::vector<double> x{1.0, 2.0};
  const auto ref = reference_predict(clf, x, true);
  EXPECT_EQ(clf.predict(x), ref.label);
  const auto proba = clf.predict_proba(x);
  for (std::size_t c = 0; c < proba.size(); ++c) {
    EXPECT_NEAR(proba[c], ref.proba[c], 1e-10);
  }
}

// A stream saved before svm-ovo-v2 — svm-ovo-v1 with binary-svm-v2
// machines, which carry full_rows — loads through the content gather
// and serves the same bits as loaded and after a re-save as svm-ovo-v2.
TEST(SvmInferPlan, OldStreamServesTheSameBitsAfterReSave) {
  std::istringstream old(kSvmV1Stream);
  const auto loaded = SvmClassifier::load(old);
  EXPECT_EQ(loaded.inference_plan().total_support_vectors(), 11u);
  EXPECT_EQ(loaded.inference_plan().unique_support_vectors(), 6u);
  std::stringstream resaved;
  loaded.save(resaved);
  EXPECT_EQ(resaved.str().rfind("svm-ovo-v2\n", 0), 0u);
  const auto reloaded = SvmClassifier::load(resaved);
  EXPECT_EQ(reloaded.inference_plan().unique_support_vectors(), 6u);

  Rng rng(12);
  for (int p = 0; p < 40; ++p) {
    const std::vector<double> x{rng.normal(0.0, 1.5), rng.normal(0.0, 1.5)};
    const auto ref = reference_predict(loaded, x, true);
    const auto proba = loaded.predict_proba(x);
    const auto pred = loaded.predict_with_probability(x);
    EXPECT_EQ(pred.label, ref.label);
    for (std::size_t c = 0; c < proba.size(); ++c) {
      EXPECT_NEAR(proba[c], ref.proba[c], 1e-10);
    }
    EXPECT_EQ(reloaded.predict_proba(x), proba);
    const auto again = reloaded.predict_with_probability(x);
    EXPECT_EQ(again.label, pred.label);
    EXPECT_EQ(again.probability, pred.probability);
  }
}

// load builds the model's one plan; a copy shares it and builds none.
TEST(SvmInferPlan, LoadBuildsExactlyOnePlan) {
  const auto trained = train_blobs(infer_config(Kernel::rbf(0.3), true));
  std::stringstream stream;
  trained.save(stream);
  auto& builds =
      obs::MetricsRegistry::instance().counter("svm.plan.builds");
  const std::uint64_t builds_before = builds.value();
  const auto loaded = SvmClassifier::load(stream);
  EXPECT_EQ(builds.value(), builds_before + 1);
  const SvmClassifier copy(loaded);
  (void)copy.predict_batch(probe_rows(9));
  EXPECT_EQ(builds.value(), builds_before + 1);
  EXPECT_EQ(&copy.inference_plan(), &loaded.inference_plan());
}

// Threads predicting on a loaded model and on its copy — which share
// one plan — get exactly the answers of a serial run.
TEST(SvmInferConcurrency, LoadedModelAndCopyServeThreadsLikeSerial) {
  const auto trained = train_blobs(infer_config(Kernel::rbf(0.3), true));
  std::stringstream stream;
  trained.save(stream);
  const auto loaded = SvmClassifier::load(stream);
  const SvmClassifier copy(loaded);
  const Matrix probes = probe_rows(16);

  struct Answers {
    std::vector<int> labels;
    std::vector<std::vector<double>> proba;
  };
  const auto serve = [&probes](const SvmClassifier& clf) {
    Answers out;
    out.labels = clf.predict_batch(probes);
    for (std::size_t r = 0; r < probes.rows(); ++r) {
      out.proba.push_back(clf.predict_proba(probes.row(r)));
    }
    return out;
  };
  const Answers serial = serve(loaded);
  Answers from_loaded;
  Answers from_copy;
  std::thread loaded_thread([&] { from_loaded = serve(loaded); });
  std::thread copy_thread([&] { from_copy = serve(copy); });
  loaded_thread.join();
  copy_thread.join();

  EXPECT_EQ(from_loaded.labels, serial.labels);
  EXPECT_EQ(from_copy.labels, serial.labels);
  EXPECT_EQ(from_loaded.proba, serial.proba);
  EXPECT_EQ(from_copy.proba, serial.proba);
}

// A polynomial model whose gamma is edited to 1e300 loads, but its
// kernel values overflow to inf, so every decision value is inf or NaN.
// It served label 0 at p = 1/3 for every row; every prediction, single
// or batched, with Platt outputs or votes, must throw instead.
TEST(SvmInferPlan, NonFiniteDecisionValuesThrow) {
  const auto probes = probe_rows(20);
  for (const bool probability : {true, false}) {
    SCOPED_TRACE(probability ? "platt" : "votes");
    const auto clf = train_blobs(
        infer_config(Kernel::polynomial(3.0, 0.5, 1.0), probability));
    std::stringstream saved;
    clf.save(saved);
    std::string text = saved.str();
    const auto at = text.find("\ngamma ") + 7;
    text.replace(at, text.find('\n', at) - at, "1e300");
    std::istringstream in(text);
    const auto edited = SvmClassifier::load(in);
    EXPECT_THROW(edited.predict(probes.row(0)), ComputeError);
    EXPECT_THROW(edited.predict_with_probability(probes.row(0)),
                 ComputeError);
    EXPECT_THROW(edited.predict_proba(probes.row(0)), ComputeError);
    EXPECT_THROW(edited.predict_batch(probes), ComputeError);
    EXPECT_THROW(edited.predict_batch_with_probability(probes),
                 ComputeError);
    EXPECT_THROW(edited.predict_proba_batch(probes), ComputeError);
  }
}

TEST(SvmInferPlan, RejectsUntrainedAndMismatchedProbes) {
  SvmClassifier clf;
  EXPECT_THROW(clf.inference_plan(), InvalidArgument);
  const auto trained = train_blobs(infer_config(Kernel::rbf(0.3), false));
  const auto& plan = trained.inference_plan();
  std::vector<double> krow(plan.unique_support_vectors());
  const std::vector<double> narrow{1.0, 2.0};
  EXPECT_THROW(plan.kernel_row(narrow, krow), InvalidArgument);
  std::vector<double> short_out(plan.unique_support_vectors() - 1);
  const std::vector<double> x(5, 0.0);
  EXPECT_THROW(plan.kernel_row(x, short_out), InvalidArgument);
}

}  // namespace
}  // namespace xdmodml::ml
