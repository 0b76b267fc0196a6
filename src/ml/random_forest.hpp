// Random forest classifier and regressor with out-of-bag (OOB) evaluation
// and permutation importance.
//
// Figure 5 of the paper is generated by the R randomForest package's
// "mean decrease in accuracy" importance; we implement the same estimator:
// for each tree, accuracy on that tree's OOB samples is compared with the
// accuracy after permuting one feature among those OOB samples, and the
// decreases are averaged over trees.  Trees are trained in parallel on the
// shared thread pool; each tree receives its own pre-split RNG stream so
// the forest is deterministic regardless of scheduling.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/decision_tree.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml {

/// Forest hyper-parameters.  `tree` carries the per-tree settings; with
/// `tree.max_features == 0` the classifier defaults to sqrt(F) and the
/// regressor to F/3 (the R randomForest defaults).
struct ForestConfig {
  std::size_t num_trees = 100;
  TreeConfig tree;
  bool bootstrap = true;   ///< sample n rows with replacement per tree
  bool parallel = true;    ///< train trees on the shared thread pool
};

/// Per-feature permutation importance result.
struct FeatureImportance {
  std::size_t feature = 0;
  double mean_decrease_accuracy = 0.0;  ///< classification forests
  double mean_decrease_impurity = 0.0;  ///< Gini / variance importance
};

/// Random forest classifier (soft voting over leaf distributions).
class RandomForestClassifier final : public Classifier {
 public:
  explicit RandomForestClassifier(ForestConfig config = {},
                                  std::uint64_t seed = 7);

  void fit(const Matrix& X, std::span<const int> y, int num_classes) override;

  /// Trains on the subset of X's rows listed in `rows` (distinct indices;
  /// each tree's bootstrap draws from this population).  Because every CV
  /// fold's training set is a row subset of the same matrix, folds can
  /// share one quantile-binned dataset: pass the same `binned` to every
  /// call and the forest skips re-binning.  With `binned == nullptr` and
  /// the hist split algorithm, the forest bins X once itself and shares
  /// the codes across all its trees.  A NaN or infinity anywhere in X
  /// throws InvalidArgument (require_finite_features), as does fit().
  void fit_rows(const Matrix& X, std::span<const int> y, int num_classes,
                std::span<const std::size_t> rows,
                std::shared_ptr<const BinnedDataset> binned = nullptr);

  std::vector<double> predict_proba(std::span<const double> x) const override;
  int num_classes() const override { return num_classes_; }

  /// OOB error estimate (fraction misclassified); requires bootstrap.
  double oob_error() const;

  /// Mean-decrease-in-accuracy permutation importance (Figure 5).
  /// Re-evaluates each tree on its OOB rows of the *training* data, which
  /// must be passed back in unchanged.
  std::vector<FeatureImportance> permutation_importance(
      const Matrix& X, std::span<const int> y, std::uint64_t seed = 99) const;

  std::size_t num_trees() const { return trees_.size(); }

  /// Serialization of a trained forest.  A loaded forest predicts
  /// normally; OOB error and permutation importance are unavailable
  /// (they need the bootstrap bookkeeping of the training run).
  void save(std::ostream& out) const;
  static RandomForestClassifier load(std::istream& in);

 private:
  ForestConfig config_;
  std::uint64_t seed_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::vector<detail::TreeEngine> trees_;
  std::vector<std::vector<std::size_t>> oob_rows_;  // per tree
  double oob_error_ = -1.0;
  std::vector<double> impurity_importance_;
};

/// Random forest regressor (mean of leaf values).
class RandomForestRegressor final : public Regressor {
 public:
  explicit RandomForestRegressor(ForestConfig config = {},
                                 std::uint64_t seed = 7);

  void fit(const Matrix& X, std::span<const double> y) override;

  /// Row-subset training with an optional shared binned dataset; see
  /// RandomForestClassifier::fit_rows.
  void fit_rows(const Matrix& X, std::span<const double> y,
                std::span<const std::size_t> rows,
                std::shared_ptr<const BinnedDataset> binned = nullptr);

  double predict(std::span<const double> x) const override;

  /// OOB mean-squared-error estimate; requires bootstrap.
  double oob_mse() const;

  std::size_t num_trees() const { return trees_.size(); }

  /// Serialization of a trained regressor (inference only; OOB MSE is a
  /// training-time artifact and is not persisted).
  void save(std::ostream& out) const;
  static RandomForestRegressor load(std::istream& in);

 private:
  ForestConfig config_;
  std::uint64_t seed_;
  std::size_t num_features_ = 0;
  std::vector<detail::TreeEngine> trees_;
  double oob_mse_ = -1.0;
};

}  // namespace xdmodml::ml
