#include "ml/cross_validation.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "ml/binned_dataset.hpp"
#include "ml/metrics.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace xdmodml::ml {

std::vector<std::size_t> stratified_folds(std::span<const int> labels,
                                          std::size_t folds, Rng& rng) {
  XDMODML_CHECK(folds >= 2, "need at least two folds");
  XDMODML_CHECK(!labels.empty(), "need labels");
  int max_label = 0;
  for (const int y : labels) max_label = std::max(max_label, y);
  std::vector<std::vector<std::size_t>> by_class(
      static_cast<std::size_t>(max_label) + 1);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    by_class[static_cast<std::size_t>(labels[i])].push_back(i);
  }
  std::vector<std::size_t> fold_of(labels.size(), 0);
  for (auto& rows : by_class) {
    rng.shuffle(rows);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      fold_of[rows[i]] = i % folds;
    }
  }
  return fold_of;
}

CvResult cross_validate(const Dataset& ds, const ClassifierFactory& factory,
                        std::size_t folds, std::uint64_t seed) {
  ds.validate();
  XDMODML_CHECK(!ds.labels.empty(), "CV requires a labeled dataset");
  XDMODML_CHECK(static_cast<bool>(factory), "CV requires a factory");
  Rng rng(seed);
  const auto fold_of = stratified_folds(ds.labels, folds, rng);

  CvResult result;
  RunningStats stats;
  for (std::size_t f = 0; f < folds; ++f) {
    std::vector<std::size_t> train_rows;
    std::vector<std::size_t> test_rows;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      (fold_of[i] == f ? test_rows : train_rows).push_back(i);
    }
    XDMODML_CHECK(!train_rows.empty() && !test_rows.empty(),
                  "fold without train or test rows — too many folds");
    const auto train = ds.subset(train_rows);
    const auto test = ds.subset(test_rows);

    Standardizer standardizer;
    const auto x_train = standardizer.fit_transform(train.X);
    auto model = factory();
    model->fit(x_train, train.labels, static_cast<int>(ds.num_classes()));
    const auto x_test = standardizer.transform(test.X);
    const auto predictions = model->predict_batch(x_test);
    const double acc = accuracy(test.labels, predictions);
    result.fold_accuracies.push_back(acc);
    stats.add(acc);
  }
  result.mean_accuracy = stats.mean();
  result.stddev_accuracy = stats.stddev();
  return result;
}

CvResult forest_cross_validate(const Dataset& ds, const ForestConfig& config,
                               std::size_t folds, std::uint64_t seed) {
  ds.validate();
  XDMODML_CHECK(!ds.labels.empty(), "CV requires a labeled dataset");
  Rng rng(seed);
  const auto fold_of = stratified_folds(ds.labels, folds, rng);

  // Bin the full matrix once; every fold's forest trains on a row subset
  // of the same codes.  With the exact split algorithm the shared
  // dataset is simply ignored by the trees.
  std::shared_ptr<const BinnedDataset> binned;
  if (config.tree.split_algo == SplitAlgo::kHist) {
    binned = std::make_shared<const BinnedDataset>(ds.X);
  }

  const int num_classes = static_cast<int>(ds.num_classes());
  CvResult result;
  RunningStats stats;
  for (std::size_t f = 0; f < folds; ++f) {
    std::vector<std::size_t> train_rows;
    std::vector<std::size_t> test_rows;
    std::vector<int> test_labels;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      if (fold_of[i] == f) {
        test_rows.push_back(i);
        test_labels.push_back(ds.labels[i]);
      } else {
        train_rows.push_back(i);
      }
    }
    XDMODML_CHECK(!train_rows.empty() && !test_rows.empty(),
                  "fold without train or test rows — too many folds");
    RandomForestClassifier forest(config, seed + f);
    forest.fit_rows(ds.X, ds.labels, num_classes, train_rows, binned);
    const auto predictions = forest.predict_batch(ds.X.gather_rows(test_rows));
    const double acc = accuracy(test_labels, predictions);
    result.fold_accuracies.push_back(acc);
    stats.add(acc);
  }
  result.mean_accuracy = stats.mean();
  result.stddev_accuracy = stats.stddev();
  return result;
}

std::vector<GridPoint> svm_grid_search(const Dataset& ds,
                                       std::span<const double> gammas,
                                       std::span<const double> cs,
                                       const SvmGridSearchOptions& options) {
  ds.validate();
  XDMODML_CHECK(!ds.labels.empty(), "grid search requires a labeled dataset");
  XDMODML_CHECK(!gammas.empty() && !cs.empty(),
                "grid search requires candidate values");

  // Fold assignment is drawn once for the entire grid (not per cell), so
  // every (γ, C) cell trains and tests on identical splits: cross-cell
  // accuracy differences are hyper-parameter signal, not fold noise, and
  // a fold's kernel rows mean the same thing in every cell.
  Rng rng(options.seed);
  const auto fold_of = stratified_folds(ds.labels, options.folds, rng);

  // One standardization for the whole sweep, fit on the full dataset.
  // Per-fold standardizers would give each fold its own feature space —
  // and therefore its own kernel matrix — defeating cross-fold row
  // reuse.  The difference (means/stds over (k−1)/k of the rows vs all
  // of them) is identical for every cell, so the ranking the tuner
  // exists to produce is unaffected.
  Standardizer standardizer;
  const Matrix xs = standardizer.fit_transform(ds.X);

  struct FoldRows {
    std::vector<std::size_t> train;
    std::vector<int> train_y;
    std::vector<std::size_t> test;
    std::vector<int> test_y;
  };
  std::vector<FoldRows> fold_rows(options.folds);
  for (std::size_t f = 0; f < options.folds; ++f) {
    for (std::size_t i = 0; i < ds.size(); ++i) {
      if (fold_of[i] == f) {
        fold_rows[f].test.push_back(i);
        fold_rows[f].test_y.push_back(ds.labels[i]);
      } else {
        fold_rows[f].train.push_back(i);
        fold_rows[f].train_y.push_back(ds.labels[i]);
      }
    }
    XDMODML_CHECK(!fold_rows[f].train.empty() && !fold_rows[f].test.empty(),
                  "fold without train or test rows — too many folds");
  }

  const std::size_t capacity = std::min(
      SharedGramCache::rows_for_budget(xs.rows(), kGramCacheBudgetBytes),
      xs.rows());
  const int num_classes = static_cast<int>(ds.num_classes());
  std::vector<GridPoint> points;
  for (const double gamma : gammas) {
    // The RBF Gram matrix depends on γ alone: one cache per γ serves
    // every C cell and every CV fold of this grid row (each fold's
    // training set is a row subset of the full standardized matrix, so
    // machines slice rows exactly the way one-vs-one pairs already do),
    // and the test folds read their decision values off the same rows
    // via predict_shared.
    std::unique_ptr<SharedGramCache> cache;
    if (options.reuse_kernel_cache) {
      cache = std::make_unique<SharedGramCache>(xs, Kernel::rbf(gamma),
                                                capacity);
    }
    for (const double c : cs) {
      auto& registry = obs::MetricsRegistry::instance();
      static auto& cells = registry.counter("grid.cells");
      static auto& cell_hits = registry.counter("grid.cache_hits");
      static auto& cell_misses = registry.counter("grid.cache_misses");
      static auto& cell_hist = registry.histogram("grid.cell_ns", "ns");
      obs::ScopedTimer cell_timer(cell_hist);
      RunningStats stats;
      for (std::size_t f = 0; f < options.folds; ++f) {
        const auto& fr = fold_rows[f];
        SvmConfig config = options.base;
        config.kernel = Kernel::rbf(gamma);
        config.c = c;
        // The refit arm (reuse off) runs the *same* code path against a
        // fresh cache per fit, so every fold of every cell recomputes
        // its kernel rows from scratch; identical arithmetic, so the
        // two arms' accuracy tables are bit-identical by construction.
        std::unique_ptr<SharedGramCache> fresh;
        if (!options.reuse_kernel_cache) {
          fresh = std::make_unique<SharedGramCache>(xs, Kernel::rbf(gamma),
                                                    capacity);
        }
        SharedGramCache& active = fresh ? *fresh : *cache;
        const auto before = active.stats();
        SvmClassifier model(config, options.seed);
        model.fit_shared(xs.gather_rows(fr.train), fr.train_y, num_classes,
                         &active, fr.train);
        const auto predictions = model.predict_shared(active, fr.test);
        stats.add(accuracy(fr.test_y, predictions));
        // Per-fold delta against the active cache: in the reuse arm the
        // cache persists across cells, so totals need differencing; in
        // the refit arm `before` is all zeros.  The ratio of these two
        // counters is the sweep's cache-reuse ratio (see `derived`
        // fields in the metrics exporters).
        const auto after = active.stats();
        cell_hits.inc(after.hits - before.hits);
        cell_misses.inc(after.misses - before.misses);
      }
      cells.inc();
      points.push_back({gamma, c, stats.mean()});
    }
  }
  std::sort(points.begin(), points.end(),
            [](const GridPoint& a, const GridPoint& b) {
              return a.cv_accuracy > b.cv_accuracy;
            });
  return points;
}

std::vector<GridPoint> svm_grid_search(const Dataset& ds,
                                       std::span<const double> gammas,
                                       std::span<const double> cs,
                                       std::size_t folds,
                                       std::uint64_t seed) {
  SvmGridSearchOptions options;
  options.folds = folds;
  options.seed = seed;
  return svm_grid_search(ds, gammas, cs, options);
}

}  // namespace xdmodml::ml
