// Tests for the random forest: accuracy, OOB, permutation importance.
#include "ml/random_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml {
namespace {

/// Three-class problem: class determined by feature 0 and feature 1;
/// feature 2 is pure noise.
void make_problem(std::size_t n, Matrix& X, std::vector<int>& y,
                  std::uint64_t seed = 1) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.uniform_index(3));
    const double f0 = static_cast<double>(cls) * 2.0 + rng.normal(0.0, 0.7);
    const double f1 = (cls == 2 ? 3.0 : 0.0) + rng.normal(0.0, 0.7);
    const double noise = rng.normal(0.0, 1.0);
    X.append_row(std::vector<double>{f0, f1, noise});
    y.push_back(cls);
  }
}

ForestConfig small_forest(std::size_t trees = 60) {
  ForestConfig cfg;
  cfg.num_trees = trees;
  return cfg;
}

TEST(RandomForest, LearnsSeparableProblem) {
  Matrix X;
  std::vector<int> y;
  make_problem(1500, X, y);
  RandomForestClassifier rf(small_forest());
  rf.fit(X, y, 3);

  Matrix xt;
  std::vector<int> yt;
  make_problem(500, xt, yt, 77);
  std::size_t correct = 0;
  for (std::size_t r = 0; r < xt.rows(); ++r) {
    if (rf.predict(xt.row(r)) == yt[r]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(xt.rows()),
            0.9);
}

TEST(RandomForest, ProbabilitiesSumToOne) {
  Matrix X;
  std::vector<int> y;
  make_problem(300, X, y);
  RandomForestClassifier rf(small_forest(20));
  rf.fit(X, y, 3);
  const auto p = rf.predict_proba(X.row(0));
  ASSERT_EQ(p.size(), 3u);
  double total = 0.0;
  for (const auto v : p) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(RandomForest, OobErrorTracksTestError) {
  Matrix X;
  std::vector<int> y;
  make_problem(1200, X, y);
  RandomForestClassifier rf(small_forest());
  rf.fit(X, y, 3);
  const double oob = rf.oob_error();
  EXPECT_GT(oob, 0.0);
  EXPECT_LT(oob, 0.2);

  Matrix xt;
  std::vector<int> yt;
  make_problem(600, xt, yt, 99);
  std::size_t wrong = 0;
  for (std::size_t r = 0; r < xt.rows(); ++r) {
    if (rf.predict(xt.row(r)) != yt[r]) ++wrong;
  }
  const double test_err =
      static_cast<double>(wrong) / static_cast<double>(xt.rows());
  EXPECT_NEAR(oob, test_err, 0.05);
}

TEST(RandomForest, OobUnavailableWithoutBootstrap) {
  Matrix X;
  std::vector<int> y;
  make_problem(200, X, y);
  ForestConfig cfg = small_forest(10);
  cfg.bootstrap = false;
  RandomForestClassifier rf(cfg);
  rf.fit(X, y, 3);
  EXPECT_THROW(rf.oob_error(), InvalidArgument);
}

TEST(RandomForest, PermutationImportanceRanksSignalOverNoise) {
  Matrix X;
  std::vector<int> y;
  make_problem(1500, X, y);
  RandomForestClassifier rf(small_forest());
  rf.fit(X, y, 3);
  const auto imp = rf.permutation_importance(X, y);
  ASSERT_EQ(imp.size(), 3u);
  // Features 0 and 1 carry the signal; feature 2 is noise.
  EXPECT_GT(imp[0].mean_decrease_accuracy,
            imp[2].mean_decrease_accuracy + 0.05);
  EXPECT_GT(imp[1].mean_decrease_accuracy,
            imp[2].mean_decrease_accuracy + 0.05);
  EXPECT_NEAR(imp[2].mean_decrease_accuracy, 0.0, 0.02);
  // Impurity importance should agree on the ordering.
  EXPECT_GT(imp[0].mean_decrease_impurity, imp[2].mean_decrease_impurity);
}

TEST(RandomForest, CorrelatedMateDepressesImportance) {
  // The paper's caveat: when two features are highly correlated, permuting
  // one while the other is present understates its importance.  Duplicate
  // the signal feature and check both copies score below a lone copy.
  Rng rng(11);
  Matrix x_lone;
  Matrix x_dup;
  std::vector<int> y;
  for (int i = 0; i < 1200; ++i) {
    const int cls = static_cast<int>(rng.uniform_index(2));
    const double signal =
        static_cast<double>(cls) * 2.0 + rng.normal(0.0, 0.8);
    x_lone.append_row(std::vector<double>{signal, rng.normal()});
    x_dup.append_row(
        std::vector<double>{signal, signal + rng.normal(0.0, 0.01),
                            rng.normal()});
    y.push_back(cls);
  }
  RandomForestClassifier rf_lone(small_forest());
  rf_lone.fit(x_lone, y, 2);
  RandomForestClassifier rf_dup(small_forest());
  rf_dup.fit(x_dup, y, 2);
  const auto imp_lone = rf_lone.permutation_importance(x_lone, y);
  const auto imp_dup = rf_dup.permutation_importance(x_dup, y);
  EXPECT_LT(imp_dup[0].mean_decrease_accuracy,
            imp_lone[0].mean_decrease_accuracy);
  EXPECT_LT(imp_dup[1].mean_decrease_accuracy,
            imp_lone[0].mean_decrease_accuracy);
}

TEST(RandomForest, DeterministicForFixedSeed) {
  Matrix X;
  std::vector<int> y;
  make_problem(400, X, y);
  RandomForestClassifier a(small_forest(15), 123);
  RandomForestClassifier b(small_forest(15), 123);
  a.fit(X, y, 3);
  b.fit(X, y, 3);
  EXPECT_DOUBLE_EQ(a.oob_error(), b.oob_error());
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_EQ(a.predict(X.row(r)), b.predict(X.row(r)));
  }
}

TEST(RandomForest, ParallelMatchesSerial) {
  Matrix X;
  std::vector<int> y;
  make_problem(400, X, y);
  ForestConfig par = small_forest(15);
  ForestConfig ser = small_forest(15);
  ser.parallel = false;
  RandomForestClassifier a(par, 5);
  RandomForestClassifier b(ser, 5);
  a.fit(X, y, 3);
  b.fit(X, y, 3);
  EXPECT_DOUBLE_EQ(a.oob_error(), b.oob_error());
  for (std::size_t r = 0; r < 50; ++r) {
    const auto pa = a.predict_proba(X.row(r));
    const auto pb = b.predict_proba(X.row(r));
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(pa[c], pb[c]);
  }
}

TEST(RandomForestRegressor, FitsNoisyLinear) {
  Rng rng(13);
  Matrix X;
  std::vector<double> y;
  for (int i = 0; i < 2000; ++i) {
    const double a = rng.uniform(0.0, 10.0);
    const double b = rng.uniform(0.0, 10.0);
    X.append_row(std::vector<double>{a, b});
    y.push_back(2.0 * a - b + rng.normal(0.0, 0.3));
  }
  RandomForestRegressor rf(small_forest());
  rf.fit(X, y);
  double se = 0.0;
  int n = 0;
  for (double a = 1.0; a < 9.0; a += 1.0) {
    for (double b = 1.0; b < 9.0; b += 1.0) {
      const double pred = rf.predict(std::vector<double>{a, b});
      const double truth = 2.0 * a - b;
      se += (pred - truth) * (pred - truth);
      ++n;
    }
  }
  EXPECT_LT(std::sqrt(se / n), 1.0);
  EXPECT_GT(rf.oob_mse(), 0.0);
  EXPECT_LT(rf.oob_mse(), 2.0);
}

TEST(RandomForest, RejectsBadInputs) {
  RandomForestClassifier rf(small_forest(5));
  Matrix X = Matrix::from_rows({{1.0}});
  EXPECT_THROW(rf.fit(X, std::vector<int>{0, 1}, 2), InvalidArgument);
  EXPECT_THROW(rf.predict(std::vector<double>{1.0}), InvalidArgument);
  ForestConfig zero;
  zero.num_trees = 0;
  EXPECT_THROW(RandomForestClassifier{zero}, InvalidArgument);
}

// A NaN or infinity in a training column has no place in the binning
// sort's order, and the exact arm would send its row left while a NaN
// query descends right.  Every tree and forest fit entry rejects it on
// both split arms, naming the cell.
TEST(RandomForest, NonFiniteTrainingFeatureRejected) {
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, std::string>> cases{
      {std::nan(""), "nan"}, {kInf, "inf"}, {-kInf, "-inf"}};
  for (const SplitAlgo algo : {SplitAlgo::kHist, SplitAlgo::kExact}) {
    for (const auto& [value, word] : cases) {
      Matrix X;
      std::vector<int> y;
      make_problem(60, X, y);
      X(17, 2) = value;
      const std::vector<double> target(y.begin(), y.end());
      ForestConfig cfg = small_forest(5);
      cfg.tree.split_algo = algo;
      const std::string want =
          "non-finite feature column 2 = " + word + " in training row 17";
      const auto expect_rejected = [&](auto&& fit, const char* model) {
        try {
          fit();
          ADD_FAILURE() << model << " trained on " << word;
        } catch (const InvalidArgument& e) {
          EXPECT_EQ(e.what(), want) << model;
        }
      };
      RandomForestClassifier forest(cfg);
      expect_rejected([&] { forest.fit(X, y, 3); }, "forest classifier");
      RandomForestRegressor forest_reg(cfg);
      expect_rejected([&] { forest_reg.fit(X, target); }, "forest regressor");
      DecisionTreeClassifier tree(cfg.tree);
      expect_rejected([&] { tree.fit(X, y, 3); }, "tree classifier");
      DecisionTreeRegressor tree_reg(cfg.tree);
      expect_rejected([&] { tree_reg.fit(X, target); }, "tree regressor");
    }
  }
}

TEST(RandomForest, BatchPredictionsMatchSerial) {
  Matrix X;
  std::vector<int> y;
  make_problem(300, X, y);
  RandomForestClassifier rf(small_forest(30));
  rf.fit(X, y, 3);
  const auto labels = rf.predict_batch(X);
  const auto probas = rf.predict_proba_batch(X);
  const auto preds = rf.predict_batch_with_probability(X);
  ASSERT_EQ(labels.size(), X.rows());
  ASSERT_EQ(probas.size(), X.rows());
  ASSERT_EQ(preds.size(), X.rows());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    EXPECT_EQ(labels[r], rf.predict(X.row(r)));
    const auto serial = rf.predict_proba(X.row(r));
    ASSERT_EQ(probas[r].size(), serial.size());
    for (std::size_t c = 0; c < serial.size(); ++c) {
      EXPECT_DOUBLE_EQ(probas[r][c], serial[c]);
    }
    EXPECT_EQ(preds[r].label, labels[r]);
  }
}

}  // namespace
}  // namespace xdmodml::ml
