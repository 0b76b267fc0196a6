#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>
#include <utility>

#include "ml/binned_dataset.hpp"
#include "ml/model_io.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace xdmodml::ml {

namespace {

/// Default mtry: sqrt(F) for classification, F/3 for regression.
std::size_t default_mtry(std::size_t num_features, bool classification) {
  if (classification) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::sqrt(static_cast<double>(num_features))));
  }
  return std::max<std::size_t>(1, num_features / 3);
}

/// Bootstrap sample drawn from `rows` (|rows| draws with replacement)
/// plus the complementary OOB set, both as global row indices.  `seen`
/// is caller-owned scratch so a range of trees reuses one bitmap
/// instead of allocating per call.
void bootstrap_sample(std::span<const std::size_t> rows, Rng& rng,
                      std::vector<std::size_t>& in_bag,
                      std::vector<std::size_t>& oob,
                      std::vector<char>& seen) {
  const std::size_t n = rows.size();
  in_bag.resize(n);
  seen.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_index(n));
    in_bag[i] = rows[j];
    seen[j] = 1;
  }
  oob.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!seen[i]) oob.push_back(rows[i]);
  }
}

/// Bins X once for the whole forest when the split algorithm wants
/// histograms and the caller did not supply a shared dataset.
std::shared_ptr<const BinnedDataset> ensure_binned(
    const Matrix& X, const TreeConfig& tree_config,
    std::shared_ptr<const BinnedDataset> binned) {
  if (binned != nullptr) {
    XDMODML_CHECK(binned->rows() == X.rows() &&
                      binned->features() == X.cols(),
                  "shared binned dataset does not match X");
    return binned;
  }
  if (tree_config.split_algo == SplitAlgo::kHist) {
    return std::make_shared<const BinnedDataset>(X);
  }
  return nullptr;
}

}  // namespace

RandomForestClassifier::RandomForestClassifier(ForestConfig config,
                                               std::uint64_t seed)
    : config_(config), seed_(seed) {
  XDMODML_CHECK(config.num_trees > 0, "forest requires >= 1 tree");
}

void RandomForestClassifier::fit(const Matrix& X, std::span<const int> y,
                                 int num_classes) {
  std::vector<std::size_t> all(X.rows());
  std::iota(all.begin(), all.end(), 0);
  fit_rows(X, y, num_classes, all, nullptr);
}

void RandomForestClassifier::fit_rows(
    const Matrix& X, std::span<const int> y, int num_classes,
    std::span<const std::size_t> rows,
    std::shared_ptr<const BinnedDataset> binned) {
  XDMODML_CHECK(X.rows() == y.size() && X.rows() > 0,
                "fit requires matching non-empty X and y");
  XDMODML_CHECK(!rows.empty(), "fit_rows requires a non-empty row subset");
  XDMODML_CHECK(num_classes > 0, "num_classes must be positive");
  require_finite_features(X);
  num_classes_ = num_classes;
  num_features_ = X.cols();

  TreeConfig tree_config = config_.tree;
  if (tree_config.max_features == 0) {
    tree_config.max_features = default_mtry(num_features_, true);
  }
  binned = ensure_binned(X, tree_config, std::move(binned));

  const std::size_t t = config_.num_trees;
  trees_.assign(t, detail::TreeEngine(
                       detail::TreeEngine::Task::kClassification,
                       tree_config));
  oob_rows_.assign(t, {});

  // Pre-split one RNG stream per tree for scheduling-independent results.
  Rng root(seed_);
  std::vector<Rng> streams;
  streams.reserve(t);
  for (std::size_t i = 0; i < t; ++i) streams.push_back(root.split());

  auto train_range = [&](std::size_t lo, std::size_t hi) {
    // Per-range scratch: the in-bag list and bootstrap bitmap are reused
    // across every tree of the range instead of reallocated per tree.
    std::vector<std::size_t> in_bag;
    std::vector<char> seen;
    for (std::size_t i = lo; i < hi; ++i) {
      Rng& rng = streams[i];
      if (config_.bootstrap) {
        bootstrap_sample(rows, rng, in_bag, oob_rows_[i], seen);
      } else {
        in_bag.assign(rows.begin(), rows.end());
      }
      trees_[i].fit(X, y, {}, num_classes, in_bag, rng, binned.get());
    }
  };
  if (config_.parallel) {
    ThreadPool::global().parallel_for_ranges(0, t, 1, train_range);
  } else {
    train_range(0, t);
  }

  // Aggregate impurity importance and OOB votes in one parallel pass
  // over the trees.  Each range produces a private tally; tallies are
  // merged in tree order (sorted by range start), so the floating-point
  // importance sums are independent of which worker ran which range.
  const auto num_class_sz = static_cast<std::size_t>(num_classes);
  const std::size_t total_rows = X.rows();
  struct Partial {
    std::size_t lo = 0;
    std::vector<double> importance;
    std::vector<std::uint32_t> votes;  // row-major total_rows x classes
  };
  std::vector<Partial> partials;
  std::mutex partials_mutex;
  auto aggregate_range = [&](std::size_t lo, std::size_t hi) {
    Partial part;
    part.lo = lo;
    part.importance.assign(num_features_, 0.0);
    if (config_.bootstrap) part.votes.assign(total_rows * num_class_sz, 0);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto imp = trees_[i].impurity_importance();
      for (std::size_t f = 0; f < num_features_; ++f) {
        part.importance[f] += imp[f];
      }
      if (config_.bootstrap) {
        for (const auto row : oob_rows_[i]) {
          const auto probs = trees_[i].leaf_probs(X.row(row));
          const auto best = static_cast<std::size_t>(
              std::max_element(probs.begin(), probs.end()) - probs.begin());
          ++part.votes[row * num_class_sz + best];
        }
      }
    }
    const std::lock_guard lock(partials_mutex);
    partials.push_back(std::move(part));
  };
  if (config_.parallel) {
    ThreadPool::global().parallel_for_ranges(0, t, 1, aggregate_range);
  } else {
    aggregate_range(0, t);
  }
  std::sort(partials.begin(), partials.end(),
            [](const Partial& a, const Partial& b) { return a.lo < b.lo; });

  impurity_importance_.assign(num_features_, 0.0);
  std::vector<std::uint32_t> votes;
  if (config_.bootstrap) votes.assign(total_rows * num_class_sz, 0);
  for (const auto& part : partials) {
    for (std::size_t f = 0; f < num_features_; ++f) {
      impurity_importance_[f] += part.importance[f];
    }
    for (std::size_t k = 0; k < part.votes.size(); ++k) {
      votes[k] += part.votes[k];
    }
  }
  const double total = std::accumulate(impurity_importance_.begin(),
                                       impurity_importance_.end(), 0.0);
  if (total > 0.0) {
    for (auto& v : impurity_importance_) v /= total;
  }

  // OOB error: majority vote over the trees for which each row was OOB.
  oob_error_ = -1.0;
  if (config_.bootstrap) {
    std::size_t evaluated = 0;
    std::size_t wrong = 0;
    for (const auto row : rows) {
      const std::uint32_t* row_votes = votes.data() + row * num_class_sz;
      const auto total_votes =
          std::accumulate(row_votes, row_votes + num_class_sz,
                          std::uint64_t{0});
      if (total_votes == 0) continue;
      ++evaluated;
      const auto best = static_cast<int>(
          std::max_element(row_votes, row_votes + num_class_sz) - row_votes);
      if (best != y[row]) ++wrong;
    }
    if (evaluated > 0) {
      oob_error_ =
          static_cast<double>(wrong) / static_cast<double>(evaluated);
    }
  }
}

std::vector<double> RandomForestClassifier::predict_proba(
    std::span<const double> x) const {
  XDMODML_CHECK(!trees_.empty(), "predict before fit");
  std::vector<double> proba(static_cast<std::size_t>(num_classes_), 0.0);
  for (const auto& tree : trees_) {
    const auto probs = tree.leaf_probs(x);
    for (std::size_t c = 0; c < proba.size(); ++c) proba[c] += probs[c];
  }
  const auto t = static_cast<double>(trees_.size());
  for (auto& p : proba) p /= t;
  return proba;
}

double RandomForestClassifier::oob_error() const {
  XDMODML_CHECK(oob_error_ >= 0.0,
                "OOB error unavailable (bootstrap disabled or not fitted)");
  return oob_error_;
}

std::vector<FeatureImportance>
RandomForestClassifier::permutation_importance(const Matrix& X,
                                               std::span<const int> y,
                                               std::uint64_t seed) const {
  XDMODML_CHECK(!trees_.empty(), "importance before fit");
  XDMODML_CHECK(config_.bootstrap, "permutation importance requires OOB rows");
  XDMODML_CHECK(X.rows() == y.size() && X.cols() == num_features_,
                "X/y must be the training data");

  const std::size_t t = trees_.size();
  // decrease[tree][feature]
  std::vector<std::vector<double>> decrease(
      t, std::vector<double>(num_features_, 0.0));
  std::vector<char> tree_used(t, 0);

  Rng root(seed);
  std::vector<Rng> streams;
  streams.reserve(t);
  for (std::size_t i = 0; i < t; ++i) streams.push_back(root.split());

  auto evaluate_tree = [&](std::size_t i) {
    const auto& oob = oob_rows_[i];
    if (oob.empty()) return;
    tree_used[i] = 1;
    Rng& rng = streams[i];
    const auto n_oob = static_cast<double>(oob.size());

    // Baseline accuracy on this tree's OOB rows.
    std::size_t baseline_correct = 0;
    for (const auto row : oob) {
      const auto probs = trees_[i].leaf_probs(X.row(row));
      const auto best = static_cast<int>(
          std::max_element(probs.begin(), probs.end()) - probs.begin());
      if (best == y[row]) ++baseline_correct;
    }
    const double baseline =
        static_cast<double>(baseline_correct) / n_oob;

    std::vector<double> scratch;
    std::vector<double> permuted(oob.size());
    for (std::size_t f = 0; f < num_features_; ++f) {
      // Permute feature f among the OOB rows.
      permuted.resize(oob.size());
      for (std::size_t k = 0; k < oob.size(); ++k) {
        permuted[k] = X(oob[k], f);
      }
      rng.shuffle(permuted);
      std::size_t correct = 0;
      for (std::size_t k = 0; k < oob.size(); ++k) {
        const auto row = X.row(oob[k]);
        scratch.assign(row.begin(), row.end());
        scratch[f] = permuted[k];
        const auto probs = trees_[i].leaf_probs(scratch);
        const auto best = static_cast<int>(
            std::max_element(probs.begin(), probs.end()) - probs.begin());
        if (best == y[oob[k]]) ++correct;
      }
      decrease[i][f] = baseline - static_cast<double>(correct) / n_oob;
    }
  };
  if (config_.parallel) {
    ThreadPool::global().parallel_for(0, t, evaluate_tree);
  } else {
    for (std::size_t i = 0; i < t; ++i) evaluate_tree(i);
  }

  std::size_t used = 0;
  for (const auto flag : tree_used) used += flag;
  XDMODML_CHECK(used > 0, "no tree had OOB rows");

  std::vector<FeatureImportance> out(num_features_);
  for (std::size_t f = 0; f < num_features_; ++f) {
    double sum = 0.0;
    for (std::size_t i = 0; i < t; ++i) sum += decrease[i][f];
    out[f].feature = f;
    out[f].mean_decrease_accuracy = sum / static_cast<double>(used);
    out[f].mean_decrease_impurity = impurity_importance_[f];
  }
  return out;
}

void RandomForestClassifier::save(std::ostream& out) const {
  XDMODML_CHECK(!trees_.empty(), "cannot save an untrained forest");
  io::write_tag(out, "forest-v1");
  io::write_scalar(out, "classes",
                   static_cast<std::int64_t>(num_classes_));
  io::write_scalar(out, "features",
                   static_cast<std::int64_t>(num_features_));
  io::write_scalar(out, "trees", static_cast<std::int64_t>(trees_.size()));
  for (const auto& tree : trees_) tree.save(out);
  io::write_vector(out, "impurity_importance", impurity_importance_);
}

RandomForestClassifier RandomForestClassifier::load(std::istream& in) {
  io::TokenReader reader(in);
  reader.expect("forest-v1");
  RandomForestClassifier forest;
  forest.num_classes_ = reader.read_count("classes", 1);
  forest.num_features_ =
      static_cast<std::size_t>(reader.read_count("features", 1));
  const auto tree_count = reader.read_int("trees");
  XDMODML_CHECK(tree_count > 0, "corrupt forest tree count");
  // No reserve: a corrupt count runs out of tokens instead of sizing an
  // allocation.
  for (std::int64_t i = 0; i < tree_count; ++i) {
    auto tree = detail::TreeEngine::load(in);
    // predict_proba reads num_classes_ entries of every leaf it reaches;
    // the tree loader checks its leaves against the tree's own count.
    XDMODML_CHECK(
        tree.task() == detail::TreeEngine::Task::kClassification &&
            tree.num_classes() == forest.num_classes_,
        "corrupt forest tree class count");
    forest.trees_.push_back(std::move(tree));
  }
  io::TokenReader tail(in);
  forest.impurity_importance_ = tail.read_vector("impurity_importance");
  forest.oob_error_ = -1.0;  // training-time artifact, not serialized
  return forest;
}

RandomForestRegressor::RandomForestRegressor(ForestConfig config,
                                             std::uint64_t seed)
    : config_(config), seed_(seed) {
  XDMODML_CHECK(config.num_trees > 0, "forest requires >= 1 tree");
}

void RandomForestRegressor::fit(const Matrix& X, std::span<const double> y) {
  std::vector<std::size_t> all(X.rows());
  std::iota(all.begin(), all.end(), 0);
  fit_rows(X, y, all, nullptr);
}

void RandomForestRegressor::fit_rows(
    const Matrix& X, std::span<const double> y,
    std::span<const std::size_t> rows,
    std::shared_ptr<const BinnedDataset> binned) {
  XDMODML_CHECK(X.rows() == y.size() && X.rows() > 0,
                "fit requires matching non-empty X and y");
  XDMODML_CHECK(!rows.empty(), "fit_rows requires a non-empty row subset");
  require_finite_features(X);
  num_features_ = X.cols();

  TreeConfig tree_config = config_.tree;
  if (tree_config.max_features == 0) {
    tree_config.max_features = default_mtry(num_features_, false);
  }
  if (tree_config.min_samples_leaf < 2) {
    tree_config.min_samples_leaf = 2;  // randomForest regression default ~5
  }
  binned = ensure_binned(X, tree_config, std::move(binned));

  const std::size_t t = config_.num_trees;
  trees_.assign(
      t, detail::TreeEngine(detail::TreeEngine::Task::kRegression,
                            tree_config));
  std::vector<std::vector<std::size_t>> oob_rows(t);

  Rng root(seed_);
  std::vector<Rng> streams;
  streams.reserve(t);
  for (std::size_t i = 0; i < t; ++i) streams.push_back(root.split());

  auto train_range = [&](std::size_t lo, std::size_t hi) {
    std::vector<std::size_t> in_bag;
    std::vector<char> seen;
    for (std::size_t i = lo; i < hi; ++i) {
      Rng& rng = streams[i];
      if (config_.bootstrap) {
        bootstrap_sample(rows, rng, in_bag, oob_rows[i], seen);
      } else {
        in_bag.assign(rows.begin(), rows.end());
      }
      trees_[i].fit(X, {}, y, 0, in_bag, rng, binned.get());
    }
  };
  if (config_.parallel) {
    ThreadPool::global().parallel_for_ranges(0, t, 1, train_range);
  } else {
    train_range(0, t);
  }

  // OOB MSE.
  oob_mse_ = -1.0;
  if (config_.bootstrap) {
    std::vector<double> pred_sum(X.rows(), 0.0);
    std::vector<std::size_t> pred_count(X.rows(), 0);
    for (std::size_t i = 0; i < t; ++i) {
      for (const auto row : oob_rows[i]) {
        pred_sum[row] += trees_[i].leaf_value(X.row(row));
        ++pred_count[row];
      }
    }
    double se = 0.0;
    std::size_t evaluated = 0;
    for (const auto row : rows) {
      if (pred_count[row] == 0) continue;
      const double pred =
          pred_sum[row] / static_cast<double>(pred_count[row]);
      const double d = pred - y[row];
      se += d * d;
      ++evaluated;
    }
    if (evaluated > 0) oob_mse_ = se / static_cast<double>(evaluated);
  }
}

double RandomForestRegressor::predict(std::span<const double> x) const {
  XDMODML_CHECK(!trees_.empty(), "predict before fit");
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.leaf_value(x);
  return sum / static_cast<double>(trees_.size());
}

void RandomForestRegressor::save(std::ostream& out) const {
  XDMODML_CHECK(!trees_.empty(), "cannot save an untrained forest");
  io::write_tag(out, "forest-reg-v1");
  io::write_scalar(out, "features",
                   static_cast<std::int64_t>(num_features_));
  io::write_scalar(out, "trees", static_cast<std::int64_t>(trees_.size()));
  for (const auto& tree : trees_) tree.save(out);
}

RandomForestRegressor RandomForestRegressor::load(std::istream& in) {
  io::TokenReader reader(in);
  reader.expect("forest-reg-v1");
  RandomForestRegressor forest;
  forest.num_features_ =
      static_cast<std::size_t>(reader.read_count("features", 1));
  const auto tree_count = reader.read_int("trees");
  XDMODML_CHECK(tree_count > 0, "corrupt forest tree count");
  for (std::int64_t i = 0; i < tree_count; ++i) {
    forest.trees_.push_back(detail::TreeEngine::load(in));
  }
  forest.oob_mse_ = -1.0;
  return forest;
}

double RandomForestRegressor::oob_mse() const {
  XDMODML_CHECK(oob_mse_ >= 0.0,
                "OOB MSE unavailable (bootstrap disabled or not fitted)");
  return oob_mse_;
}

}  // namespace xdmodml::ml
