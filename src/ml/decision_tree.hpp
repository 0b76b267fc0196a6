// CART decision trees (classification via Gini impurity, regression via
// variance reduction), the building block of the random forest.
//
// Two split-search algorithms share one engine:
//
//  * kExact — the classic sort-and-scan: for each candidate feature the
//    samples reaching a node are sorted by feature value and every
//    midpoint between distinct consecutive values is scored
//    incrementally.  O(n log n) per feature per node.
//  * kHist — histogram-binned search over a `BinnedDataset`: per-bin
//    class-count (or count/sum/sumsq) histograms are accumulated in one
//    O(n) pass per feature and the ≤256 bins are scanned instead of
//    sorting.  Every node builds each histogram it scores this way, into
//    one reused buffer.
//
// `max_features` enables the per-split feature subsampling that
// distinguishes a *random* forest from plain bagging.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml {

class BinnedDataset;

/// Split-search algorithm selector.  kHist is the default; kExact stays
/// as the reference the binned-split equivalence tests and bench_forest
/// compare against.
enum class SplitAlgo { kExact, kHist };

/// Hyper-parameters shared by tree classifier / regressor / forest.
struct TreeConfig {
  std::size_t max_depth = 0;          ///< 0 = unlimited
  std::size_t min_samples_split = 2;  ///< do not split smaller nodes
  std::size_t min_samples_leaf = 1;   ///< both children must have >= this
  std::size_t max_features = 0;       ///< features tried per split; 0 = all
  double min_impurity_decrease = 0.0; ///< prune splits that gain less
  SplitAlgo split_algo = SplitAlgo::kHist;  ///< split search (see above)
};

namespace detail {

/// One tree node; children are indices into the tree's node vector.
struct TreeNode {
  int feature = -1;          ///< -1 marks a leaf
  double threshold = 0.0;    ///< go left when x[feature] <= threshold
  std::size_t left = 0;
  std::size_t right = 0;
  std::vector<double> class_probs;  ///< leaf class distribution
  double value = 0.0;               ///< leaf regression value
};

/// Task-agnostic CART engine used by both public wrappers.
class TreeEngine {
 public:
  enum class Task { kClassification, kRegression };

  TreeEngine(Task task, TreeConfig config) : task_(task), config_(config) {}

  /// Trains on the rows of X listed in `sample_indices` (duplicates allowed
  /// — this is how the forest passes bootstrap samples).  For
  /// classification, `y_class` supplies labels; for regression, `y_value`.
  /// With the kHist algorithm, `binned` supplies the shared quantile-binned
  /// codes of X (the forest bins once and passes the same dataset to every
  /// tree); when null the engine bins X itself.
  void fit(const Matrix& X, std::span<const int> y_class,
           std::span<const double> y_value, int num_classes,
           std::span<const std::size_t> sample_indices, Rng& rng,
           const BinnedDataset* binned = nullptr);

  /// Leaf class distribution for one row (classification).
  std::span<const double> leaf_probs(std::span<const double> x) const;

  /// Leaf value for one row (regression).
  double leaf_value(std::span<const double> x) const;

  Task task() const { return task_; }
  int num_classes() const { return num_classes_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;
  bool trained() const { return !nodes_.empty(); }

  /// Total impurity decrease contributed by each feature (Gini importance).
  std::span<const double> impurity_importance() const {
    return impurity_importance_;
  }

  /// Serialization of a *trained* engine (inference state only).
  void save(std::ostream& out) const;
  static TreeEngine load(std::istream& in);

 private:
  struct BuildContext;
  std::size_t build_node(BuildContext& ctx, std::size_t begin,
                         std::size_t end, std::size_t depth_now);
  const detail::TreeNode& descend(std::span<const double> x) const;

  Task task_;
  TreeConfig config_;
  int num_classes_ = 0;
  std::size_t num_features_ = 0;
  std::vector<TreeNode> nodes_;
  std::vector<double> impurity_importance_;
};

}  // namespace detail

/// Single CART classifier with a `Classifier` interface.  fit() throws
/// InvalidArgument on a NaN or infinite feature (require_finite_features).
class DecisionTreeClassifier final : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeConfig config = {},
                                  std::uint64_t seed = 1);

  void fit(const Matrix& X, std::span<const int> y, int num_classes) override;
  std::vector<double> predict_proba(std::span<const double> x) const override;
  int num_classes() const override { return num_classes_; }

  std::size_t node_count() const { return engine_.node_count(); }
  std::size_t depth() const { return engine_.depth(); }

 private:
  detail::TreeEngine engine_;
  Rng rng_;
  int num_classes_ = 0;
};

/// Single CART regressor with a `Regressor` interface.  fit() throws
/// InvalidArgument on a NaN or infinite feature (require_finite_features).
class DecisionTreeRegressor final : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig config = {},
                                 std::uint64_t seed = 1);

  void fit(const Matrix& X, std::span<const double> y) override;
  double predict(std::span<const double> x) const override;

  std::size_t node_count() const { return engine_.node_count(); }

 private:
  detail::TreeEngine engine_;
  Rng rng_;
};

}  // namespace xdmodml::ml
