// K-fold cross-validation and hyper-parameter grid search.
//
// The paper states its SVM was "tuned with γ = 0.1 and C = 1000"; this
// module provides the tuning machinery: stratified k-fold CV over any
// classifier factory, and a (γ, C) grid search for the RBF SVM.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml {

/// Builds a fresh, untrained classifier (one per fold).
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

/// Stratified fold assignment: fold_of[i] in [0, folds) with per-class
/// round-robin so every fold sees every class.
std::vector<std::size_t> stratified_folds(std::span<const int> labels,
                                          std::size_t folds, Rng& rng);

/// Result of a cross-validation run.
struct CvResult {
  std::vector<double> fold_accuracies;
  double mean_accuracy = 0.0;
  double stddev_accuracy = 0.0;
};

/// Runs stratified k-fold CV of `factory`'s classifier on the dataset.
/// Features are standardized per fold (fit on the training side only).
CvResult cross_validate(const Dataset& ds, const ClassifierFactory& factory,
                        std::size_t folds, std::uint64_t seed = 1);

/// Forest-specialized k-fold CV: every fold's training set is a row
/// subset of the same matrix, so the quantile-binned dataset is built
/// ONCE and shared across all folds (and all trees within each fold)
/// via `RandomForestClassifier::fit_rows` — the forest analogue of the
/// per-γ kernel-cache sharing in svm_grid_search.  Features are used
/// raw: trees are invariant to monotone per-feature transforms, so the
/// per-fold standardization of the generic path adds nothing here.
CvResult forest_cross_validate(const Dataset& ds, const ForestConfig& config,
                               std::size_t folds, std::uint64_t seed = 1);

/// One evaluated point of an SVM (γ, C) grid search.
struct GridPoint {
  double gamma = 0.0;
  double c = 0.0;
  double cv_accuracy = 0.0;
};

/// Knobs for the (γ, C) tuning sweep.
struct SvmGridSearchOptions {
  SvmGridSearchOptions() { base.probability = false; }

  std::size_t folds = 3;
  std::uint64_t seed = 1;
  /// Share one full-matrix kernel-row cache per γ across every C cell
  /// and every CV fold (the RBF Gram matrix depends on γ alone, and each
  /// fold's training set is a row subset of the full dataset).  Pure
  /// reuse: the accuracy table is bit-identical to per-cell refits,
  /// which stay as the reference arm of that equivalence test.
  bool reuse_kernel_cache = true;
  /// Base SVM config; kernel and C are overwritten per cell.  Defaults
  /// to probability = false (accuracy-only tuning); with probability on,
  /// Platt CV folds also slice out of the shared cache.
  SvmConfig base;
};

/// Grid-searches the RBF SVM over the cartesian product of `gammas` and
/// `cs`; returns all points, best first.  The fold assignment and the
/// feature standardization are hoisted out of the cell loop — one RNG
/// draw and one standardizer for the whole grid — so every cell trains
/// on identical fold splits (cross-cell deltas are signal, not fold
/// noise) and kernel rows can be shared across cells and folds.
std::vector<GridPoint> svm_grid_search(const Dataset& ds,
                                       std::span<const double> gammas,
                                       std::span<const double> cs,
                                       const SvmGridSearchOptions& options);

/// Convenience overload with default options (kernel reuse on).
std::vector<GridPoint> svm_grid_search(const Dataset& ds,
                                       std::span<const double> gammas,
                                       std::span<const double> cs,
                                       std::size_t folds = 3,
                                       std::uint64_t seed = 1);

}  // namespace xdmodml::ml
