// Tests for the histogram-binned split engine: BinnedDataset semantics,
// binned-vs-exact split equivalence (bit-identical trees when every
// distinct value gets its own bin), histogram additivity (the identity
// behind the parent-minus-sibling subtraction trick), forest OOB parity
// between the two arms, and the tree loader's topology validation.
#include "ml/binned_dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/model_io.hpp"
#include "ml/random_forest.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace xdmodml::ml {
namespace {

/// Discrete three-class problem: every feature takes one of `levels`
/// values, so with levels <= 256 each distinct value gets its own bin
/// and the hist arm must reproduce the exact arm bit-for-bit.
void make_discrete_problem(std::size_t n, std::size_t levels, Matrix& X,
                           std::vector<int>& y, std::uint64_t seed = 1) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(rng.uniform_index(levels));
    const double b = static_cast<double>(rng.uniform_index(levels));
    const double noise = static_cast<double>(rng.uniform_index(levels));
    X.append_row(std::vector<double>{a, b, noise});
    const double half = static_cast<double>(levels) / 2.0;
    int cls = a < half ? (b < half ? 0 : 1) : 2;
    if (rng.uniform_index(10) == 0) cls = (cls + 1) % 3;  // label noise
    y.push_back(cls);
  }
}

/// Twenty-class discrete problem at the full bin width: every feature
/// takes one of 256 values, so bin codes run through all four 64-bit
/// words of the hist arm's touched-bin mask, and a tree grown to purity
/// reaches nodes that hold only a few of the twenty classes.
void make_wide_discrete_problem(std::size_t n, Matrix& X, std::vector<int>& y,
                                std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = rng.uniform_index(256);
    const auto b = rng.uniform_index(256);
    const auto c = rng.uniform_index(256);
    const auto noise = rng.uniform_index(256);
    X.append_row(std::vector<double>{
        static_cast<double>(a), static_cast<double>(b),
        static_cast<double>(c), static_cast<double>(noise)});
    // 4 bands of a × 5 bands of b + c; the a bands break at 64/128/192.
    auto cls = static_cast<int>((a / 64) * 5 + (b + c) / 103);
    if (rng.uniform_index(10) == 0) {
      cls = static_cast<int>(rng.uniform_index(20));  // label noise
    }
    y.push_back(cls);
  }
}

/// Continuous three-class problem shaped like the job-classification
/// fixtures (class signal in two features, one pure-noise feature).
void make_continuous_problem(std::size_t n, Matrix& X, std::vector<int>& y,
                             std::uint64_t seed = 1) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.uniform_index(3));
    const double f0 = static_cast<double>(cls) * 2.0 + rng.normal(0.0, 0.7);
    const double f1 = (cls == 2 ? 3.0 : 0.0) + rng.normal(0.0, 0.7);
    X.append_row(std::vector<double>{f0, f1, rng.normal(0.0, 1.0)});
    y.push_back(cls);
  }
}

TEST(BinnedDataset, OneBinPerDistinctValueWhenSaturated) {
  const Matrix X = Matrix::from_rows({{3.0}, {1.0}, {2.0}, {1.0}, {3.0}});
  const BinnedDataset binned(X);
  ASSERT_EQ(binned.features(), 1u);
  EXPECT_EQ(binned.rows(), 5u);
  ASSERT_EQ(binned.num_bins(0), 3u);
  EXPECT_EQ(binned.max_bins_used(), 3u);
  // Codes are the rank of the value among the distinct values.
  const std::vector<std::uint8_t> want{2, 0, 1, 0, 2};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(binned.code(i, 0), want[i]) << "row " << i;
  }
  // Saturated bins hold exactly one value each.
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_DOUBLE_EQ(binned.bin_min(0, b), static_cast<double>(b + 1));
    EXPECT_DOUBLE_EQ(binned.bin_max(0, b), static_cast<double>(b + 1));
  }
  // Threshold between adjacent bins is the exact-arm midpoint.
  EXPECT_DOUBLE_EQ(binned.split_threshold(0, 0, 1), 1.5);
  EXPECT_DOUBLE_EQ(binned.split_threshold(0, 1, 2), 2.5);
}

TEST(BinnedDataset, QuantileBinningCapsBinsAndKeepsOrder) {
  Matrix X;
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    X.append_row(std::vector<double>{rng.uniform(0.0, 1.0)});
  }
  const BinnedDataset binned(X, 16);
  ASSERT_LE(binned.num_bins(0), 16u);
  ASSERT_GE(binned.num_bins(0), 2u);
  // Code assignment is monotone in the raw value and bins are disjoint
  // ordered intervals: max of bin b sits strictly below min of bin b+1.
  for (std::size_t i = 0; i < X.rows(); ++i) {
    const double v = X.row(i)[0];
    const auto c = binned.code(i, 0);
    EXPECT_GE(v, binned.bin_min(0, c));
    EXPECT_LE(v, binned.bin_max(0, c));
  }
  for (std::size_t b = 0; b + 1 < binned.num_bins(0); ++b) {
    EXPECT_LE(binned.bin_min(0, b), binned.bin_max(0, b));
    EXPECT_LT(binned.bin_max(0, b), binned.bin_min(0, b + 1));
  }
}

TEST(BinnedDataset, DeterministicAcrossConstructions) {
  Matrix X;
  Rng rng(12);
  for (int i = 0; i < 600; ++i) {
    X.append_row(std::vector<double>{rng.normal(), rng.uniform(0.0, 5.0),
                                     static_cast<double>(rng.uniform_index(4))});
  }
  const BinnedDataset a(X, 32);
  const BinnedDataset b(X, 32);
  ASSERT_EQ(a.features(), b.features());
  ASSERT_EQ(a.rows(), b.rows());
  for (std::size_t f = 0; f < a.features(); ++f) {
    ASSERT_EQ(a.num_bins(f), b.num_bins(f)) << "feature " << f;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a.code(i, f), b.code(i, f)) << "row " << i;
    }
    for (std::size_t bin = 0; bin < a.num_bins(f); ++bin) {
      EXPECT_DOUBLE_EQ(a.bin_min(f, bin), b.bin_min(f, bin));
      EXPECT_DOUBLE_EQ(a.bin_max(f, bin), b.bin_max(f, bin));
    }
  }
}

TEST(BinnedDataset, SelectFeaturesCopiesColumnsVerbatim) {
  Matrix X;
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    X.append_row(std::vector<double>{rng.normal(), rng.normal(),
                                     rng.normal()});
  }
  const BinnedDataset full(X);
  const std::vector<std::size_t> keep{2, 0};
  const BinnedDataset sub = full.select_features(keep);
  ASSERT_EQ(sub.features(), 2u);
  EXPECT_EQ(sub.rows(), full.rows());
  for (std::size_t k = 0; k < keep.size(); ++k) {
    ASSERT_EQ(sub.num_bins(k), full.num_bins(keep[k]));
    for (std::size_t i = 0; i < full.rows(); ++i) {
      ASSERT_EQ(sub.code(i, k), full.code(i, keep[k]));
    }
    for (std::size_t b = 0; b < sub.num_bins(k); ++b) {
      EXPECT_DOUBLE_EQ(sub.bin_min(k, b), full.bin_min(keep[k], b));
      EXPECT_DOUBLE_EQ(sub.bin_max(k, b), full.bin_max(keep[k], b));
    }
  }
  EXPECT_THROW(full.select_features(std::vector<std::size_t>{99}),
               InvalidArgument);
}

TEST(BinnedDataset, RejectsEmptyMatrix) {
  EXPECT_THROW(BinnedDataset(Matrix{}), InvalidArgument);
}

TEST(HistAccumulation, ParentHistEqualsLeftPlusRight) {
  Matrix X;
  std::vector<int> y;
  make_discrete_problem(500, 6, X, y, 21);
  const BinnedDataset binned(X);

  // Split the sample multiset (with duplicates, like a bootstrap draw)
  // into two arbitrary halves; per-bin counts must add exactly.
  Rng rng(22);
  std::vector<std::size_t> parent;
  for (int i = 0; i < 700; ++i) parent.push_back(rng.uniform_index(X.rows()));
  const std::span<const std::size_t> left(parent.data(), 300);
  const std::span<const std::size_t> right(parent.data() + 300,
                                           parent.size() - 300);

  for (std::size_t f = 0; f < binned.features(); ++f) {
    const std::size_t width = binned.num_bins(f) * 3;
    std::vector<double> hp(width, 0.0), hl(width, 0.0), hr(width, 0.0);
    accumulate_class_hist(binned, f, parent, y, 3, hp);
    accumulate_class_hist(binned, f, left, y, 3, hl);
    accumulate_class_hist(binned, f, right, y, 3, hr);
    double total = 0.0;
    for (std::size_t k = 0; k < width; ++k) {
      EXPECT_DOUBLE_EQ(hp[k], hl[k] + hr[k]) << "slot " << k;
      total += hp[k];
    }
    EXPECT_DOUBLE_EQ(total, static_cast<double>(parent.size()));
  }
}

TEST(HistAccumulation, ValueHistAddsExactlyOnIntegralTargets) {
  Matrix X;
  std::vector<int> labels;
  make_discrete_problem(400, 5, X, labels, 23);
  // Integral targets keep the per-bin sums exact under any summation
  // order, so parent == left + right holds to the last bit.
  std::vector<double> targets;
  for (std::size_t i = 0; i < X.rows(); ++i) {
    targets.push_back(static_cast<double>(i % 7));
  }
  const BinnedDataset binned(X);
  std::vector<std::size_t> parent(X.rows());
  std::iota(parent.begin(), parent.end(), 0);
  const std::span<const std::size_t> left(parent.data(), 150);
  const std::span<const std::size_t> right(parent.data() + 150,
                                           parent.size() - 150);
  for (std::size_t f = 0; f < binned.features(); ++f) {
    const std::size_t width = binned.num_bins(f) * 3;
    std::vector<double> hp(width, 0.0), hl(width, 0.0), hr(width, 0.0);
    accumulate_value_hist(binned, f, parent, targets, hp);
    accumulate_value_hist(binned, f, left, targets, hl);
    accumulate_value_hist(binned, f, right, targets, hr);
    for (std::size_t k = 0; k < width; ++k) {
      EXPECT_DOUBLE_EQ(hp[k], hl[k] + hr[k]) << "slot " << k;
    }
  }
}

TEST(SplitAlgoDefault, TreeConfigSelectsHist) {
  EXPECT_EQ(TreeConfig{}.split_algo, SplitAlgo::kHist);
  EXPECT_EQ(ForestConfig{}.tree.split_algo, SplitAlgo::kHist);
}

TEST(SplitEquivalence, ClassifierBitIdenticalOnDiscreteData) {
  Matrix X;
  std::vector<int> y;
  make_discrete_problem(400, 8, X, y, 31);

  TreeConfig exact_cfg;
  exact_cfg.split_algo = SplitAlgo::kExact;
  TreeConfig hist_cfg;
  hist_cfg.split_algo = SplitAlgo::kHist;
  DecisionTreeClassifier exact(exact_cfg, 42);
  DecisionTreeClassifier hist(hist_cfg, 42);
  exact.fit(X, y, 3);
  hist.fit(X, y, 3);

  EXPECT_EQ(exact.node_count(), hist.node_count());
  EXPECT_EQ(exact.depth(), hist.depth());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto pe = exact.predict_proba(X.row(r));
    const auto ph = hist.predict_proba(X.row(r));
    ASSERT_EQ(pe.size(), ph.size());
    for (std::size_t c = 0; c < pe.size(); ++c) {
      ASSERT_EQ(pe[c], ph[c]) << "row " << r << " class " << c;
    }
  }
}

TEST(SplitEquivalence, ClassifierMatchesUnderFeatureSubsampling) {
  // mtry < F exercises the lazy Fisher-Yates draw; both arms must skip
  // constant features identically for the RNG streams to stay in sync.
  Matrix X;
  std::vector<int> y;
  make_discrete_problem(300, 6, X, y, 32);
  // Append a constant column to force the constant-doesn't-count path.
  Matrix wide;
  for (std::size_t r = 0; r < X.rows(); ++r) {
    auto row = std::vector<double>(X.row(r).begin(), X.row(r).end());
    row.push_back(1.0);
    wide.append_row(row);
  }
  TreeConfig exact_cfg;
  exact_cfg.split_algo = SplitAlgo::kExact;
  exact_cfg.max_features = 2;
  TreeConfig hist_cfg = exact_cfg;
  hist_cfg.split_algo = SplitAlgo::kHist;
  DecisionTreeClassifier exact(exact_cfg, 7);
  DecisionTreeClassifier hist(hist_cfg, 7);
  exact.fit(wide, y, 3);
  hist.fit(wide, y, 3);
  EXPECT_EQ(exact.node_count(), hist.node_count());
  for (std::size_t r = 0; r < wide.rows(); ++r) {
    const auto pe = exact.predict_proba(wide.row(r));
    const auto ph = hist.predict_proba(wide.row(r));
    for (std::size_t c = 0; c < pe.size(); ++c) {
      ASSERT_EQ(pe[c], ph[c]) << "row " << r;
    }
  }
}

TEST(SplitEquivalence, RegressorMatchesOnIntegralStepFunction) {
  // Integral feature values and targets keep every partial sum exact in
  // both arms, so split decisions — and therefore trees — coincide.
  Matrix X;
  std::vector<double> y;
  Rng rng(33);
  for (int i = 0; i < 500; ++i) {
    const double a = static_cast<double>(rng.uniform_index(10));
    const double b = static_cast<double>(rng.uniform_index(10));
    X.append_row(std::vector<double>{a, b});
    y.push_back(a < 5.0 ? 1.0 : (b < 5.0 ? 3.0 : 5.0));
  }
  TreeConfig exact_cfg;
  exact_cfg.split_algo = SplitAlgo::kExact;
  TreeConfig hist_cfg;
  hist_cfg.split_algo = SplitAlgo::kHist;
  DecisionTreeRegressor exact(exact_cfg, 5);
  DecisionTreeRegressor hist(hist_cfg, 5);
  exact.fit(X, y);
  hist.fit(X, y);
  EXPECT_EQ(exact.node_count(), hist.node_count());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    EXPECT_NEAR(exact.predict(X.row(r)), hist.predict(X.row(r)), 1e-12)
        << "row " << r;
  }
}

TEST(SplitEquivalence, ForestIdenticalOnDiscreteData) {
  Matrix X;
  std::vector<int> y;
  make_discrete_problem(600, 8, X, y, 34);

  ForestConfig exact_cfg;
  exact_cfg.num_trees = 30;
  exact_cfg.tree.split_algo = SplitAlgo::kExact;
  ForestConfig hist_cfg = exact_cfg;
  hist_cfg.tree.split_algo = SplitAlgo::kHist;

  RandomForestClassifier exact(exact_cfg, 9);
  RandomForestClassifier hist(hist_cfg, 9);
  exact.fit(X, y, 3);
  hist.fit(X, y, 3);

  // Same bootstrap streams + bit-identical trees => identical OOB error
  // and identical soft votes.
  EXPECT_DOUBLE_EQ(exact.oob_error(), hist.oob_error());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto pe = exact.predict_proba(X.row(r));
    const auto ph = hist.predict_proba(X.row(r));
    for (std::size_t c = 0; c < pe.size(); ++c) {
      ASSERT_EQ(pe[c], ph[c]) << "row " << r;
    }
  }
}

TEST(SplitEquivalence, ForestOobParityOnContinuousFixture) {
  // Continuous features quantile-bin lossily, so the arms legitimately
  // differ — but OOB error must stay within a tight band (the ISSUE's
  // acceptance bar is 1% absolute on the bench fixture).
  Matrix X;
  std::vector<int> y;
  make_continuous_problem(1200, X, y, 35);

  ForestConfig exact_cfg;
  exact_cfg.num_trees = 60;
  exact_cfg.tree.split_algo = SplitAlgo::kExact;
  ForestConfig hist_cfg = exact_cfg;
  hist_cfg.tree.split_algo = SplitAlgo::kHist;

  RandomForestClassifier exact(exact_cfg, 17);
  RandomForestClassifier hist(hist_cfg, 17);
  exact.fit(X, y, 3);
  hist.fit(X, y, 3);
  EXPECT_NEAR(exact.oob_error(), hist.oob_error(), 0.02);

  Matrix xt;
  std::vector<int> yt;
  make_continuous_problem(400, xt, yt, 36);
  std::size_t ce = 0, ch = 0;
  for (std::size_t r = 0; r < xt.rows(); ++r) {
    if (exact.predict(xt.row(r)) == yt[r]) ++ce;
    if (hist.predict(xt.row(r)) == yt[r]) ++ch;
  }
  const auto n = static_cast<double>(xt.rows());
  EXPECT_GT(static_cast<double>(ce) / n, 0.9);
  EXPECT_GT(static_cast<double>(ch) / n, 0.9);
}

TEST(SplitEquivalence, SharedBinnedDatasetMatchesSelfBinned) {
  Matrix X;
  std::vector<int> y;
  make_discrete_problem(500, 8, X, y, 37);
  std::vector<std::size_t> rows(X.rows());
  std::iota(rows.begin(), rows.end(), 0);

  ForestConfig cfg;
  cfg.num_trees = 20;
  cfg.tree.split_algo = SplitAlgo::kHist;

  RandomForestClassifier self_binned(cfg, 3);
  self_binned.fit(X, y, 3);
  RandomForestClassifier shared(cfg, 3);
  shared.fit_rows(X, y, 3, rows,
                  std::make_shared<const BinnedDataset>(X));
  EXPECT_DOUBLE_EQ(self_binned.oob_error(), shared.oob_error());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto pa = self_binned.predict_proba(X.row(r));
    const auto pb = shared.predict_proba(X.row(r));
    for (std::size_t c = 0; c < pa.size(); ++c) {
      ASSERT_EQ(pa[c], pb[c]) << "row " << r;
    }
  }
}

TEST(SplitEquivalence, TreeBitIdenticalAtFullBinWidth) {
  Matrix X;
  std::vector<int> y;
  make_wide_discrete_problem(3000, X, y, 38);
  const BinnedDataset binned(X);
  for (std::size_t f = 0; f < binned.features(); ++f) {
    ASSERT_GE(binned.num_bins(f), 200u) << "feature " << f;
  }
  ASSERT_EQ(binned.max_bins_used(), BinnedDataset::kMaxBins);

  TreeConfig exact_cfg;
  exact_cfg.split_algo = SplitAlgo::kExact;
  TreeConfig hist_cfg;
  hist_cfg.split_algo = SplitAlgo::kHist;
  DecisionTreeClassifier exact(exact_cfg, 8);
  DecisionTreeClassifier hist(hist_cfg, 8);
  exact.fit(X, y, 20);
  hist.fit(X, y, 20);

  EXPECT_EQ(exact.node_count(), hist.node_count());
  EXPECT_EQ(exact.depth(), hist.depth());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto pe = exact.predict_proba(X.row(r));
    const auto ph = hist.predict_proba(X.row(r));
    ASSERT_EQ(pe.size(), ph.size());
    for (std::size_t c = 0; c < pe.size(); ++c) {
      ASSERT_EQ(pe[c], ph[c]) << "row " << r << " class " << c;
    }
  }
}

TEST(SplitEquivalence, ForestBitIdenticalAtFullBinWidth) {
  Matrix X;
  std::vector<int> y;
  make_wide_discrete_problem(3000, X, y, 39);

  ForestConfig exact_cfg;
  exact_cfg.num_trees = 30;
  exact_cfg.tree.max_features = 2;
  exact_cfg.tree.split_algo = SplitAlgo::kExact;
  ForestConfig hist_cfg = exact_cfg;
  hist_cfg.tree.split_algo = SplitAlgo::kHist;

  RandomForestClassifier exact(exact_cfg, 10);
  RandomForestClassifier hist(hist_cfg, 10);
  exact.fit(X, y, 20);
  hist.fit(X, y, 20);

  // The saved streams hold every node of every tree (feature, threshold,
  // children, leaf distribution) and the impurity importances, so equal
  // streams mean equal node counts and equal split gains.  Compared by
  // first mismatch: gtest's line diff of two differing streams this
  // long can need gigabytes.
  std::ostringstream exact_out, hist_out;
  exact.save(exact_out);
  hist.save(hist_out);
  const std::string exact_stream = exact_out.str();
  const std::string hist_stream = hist_out.str();
  const auto [ie, ih] = std::mismatch(exact_stream.begin(), exact_stream.end(),
                                      hist_stream.begin(), hist_stream.end());
  EXPECT_TRUE(ie == exact_stream.end() && ih == hist_stream.end())
      << "saved forests differ from byte " << (ie - exact_stream.begin());
  EXPECT_EQ(exact.oob_error(), hist.oob_error());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto pe = exact.predict_proba(X.row(r));
    const auto ph = hist.predict_proba(X.row(r));
    ASSERT_EQ(pe.size(), ph.size());
    for (std::size_t c = 0; c < pe.size(); ++c) {
      ASSERT_EQ(pe[c], ph[c]) << "row " << r << " class " << c;
    }
  }
}

TEST(HistMetrics, SubtractionAndScanCountersAdvance) {
  // Few distinct values + many rows keeps n >= 2 * max_bins_used at the
  // top of the tree, so the sibling store engages and right children get
  // their histograms by subtraction rather than accumulation.
  Matrix X;
  std::vector<int> y;
  make_discrete_problem(2000, 8, X, y, 41);

  auto& registry = obs::MetricsRegistry::instance();
  const auto before = registry.snapshot();
  TreeConfig cfg;
  cfg.split_algo = SplitAlgo::kHist;
  DecisionTreeClassifier tree(cfg, 2);
  tree.fit(X, y, 3);
  const auto after = registry.snapshot();

  EXPECT_GT(after.counter("tree.nodes"), before.counter("tree.nodes"));
  EXPECT_GT(after.counter("tree.hist_built"),
            before.counter("tree.hist_built"));
  EXPECT_GT(after.counter("tree.hist_subtracted"),
            before.counter("tree.hist_subtracted"));
  EXPECT_GT(after.counter("tree.hist_scan_bins"),
            before.counter("tree.hist_scan_bins"));
  // The hist arm never sorts node samples.
  EXPECT_EQ(after.counter("tree.exact_sorted_values"),
            before.counter("tree.exact_sorted_values"));

  TreeConfig exact_cfg;
  exact_cfg.split_algo = SplitAlgo::kExact;
  DecisionTreeClassifier exact(exact_cfg, 2);
  exact.fit(X, y, 3);
  const auto last = registry.snapshot();
  EXPECT_GT(last.counter("tree.exact_sorted_values"),
            after.counter("tree.exact_sorted_values"));
}

// ---------------------------------------------------------------------
// Loader topology validation (crafted tree-v1 payloads).

struct NodeSpec {
  int feature = -1;
  double threshold = 0.0;
  std::int64_t left = 0;
  std::int64_t right = 0;
  double value = 0.0;
  std::vector<double> probs;
};

std::string tree_payload(int task, int classes, int features,
                         const std::vector<NodeSpec>& nodes) {
  std::ostringstream out;
  io::write_tag(out, "tree-v1");
  io::write_scalar(out, "task", static_cast<std::int64_t>(task));
  io::write_scalar(out, "classes", static_cast<std::int64_t>(classes));
  io::write_scalar(out, "features", static_cast<std::int64_t>(features));
  io::write_scalar(out, "nodes", static_cast<std::int64_t>(nodes.size()));
  for (const auto& n : nodes) {
    io::write_scalar(out, "f", static_cast<std::int64_t>(n.feature));
    io::write_scalar(out, "t", n.threshold);
    io::write_scalar(out, "l", n.left);
    io::write_scalar(out, "r", n.right);
    io::write_scalar(out, "v", n.value);
    io::write_vector(out, "p", n.probs);
  }
  io::write_vector(out, "importance",
                   std::vector<double>(static_cast<std::size_t>(features)));
  return out.str();
}

detail::TreeEngine load_payload(const std::string& payload) {
  std::istringstream in(payload);
  return detail::TreeEngine::load(in);
}

TEST(TreeLoad, AcceptsValidStump) {
  const auto payload = tree_payload(
      0, 2, 1,
      {{0, 0.5, 1, 2, 0.0, {}},
       {-1, 0.0, 0, 0, 0.0, {1.0, 0.0}},
       {-1, 0.0, 0, 0, 0.0, {0.0, 1.0}}});
  const auto engine = load_payload(payload);
  EXPECT_EQ(engine.node_count(), 3u);
  const std::vector<double> lo{0.0}, hi{1.0};
  EXPECT_DOUBLE_EQ(engine.leaf_probs(lo)[0], 1.0);
  EXPECT_DOUBLE_EQ(engine.leaf_probs(hi)[1], 1.0);
}

TEST(TreeLoad, RejectsSelfLoopChild) {
  // Root pointing left at itself: descend() would spin forever.
  const auto payload = tree_payload(
      0, 2, 1,
      {{0, 0.5, 0, 1, 0.0, {}},
       {-1, 0.0, 0, 0, 0.0, {1.0, 0.0}}});
  EXPECT_THROW(load_payload(payload), InvalidArgument);
}

TEST(TreeLoad, RejectsBackEdgeToAncestor) {
  // Node 1 points left back at the root: a cycle through two nodes.
  const auto payload = tree_payload(
      0, 2, 1,
      {{0, 0.5, 1, 2, 0.0, {}},
       {0, 0.2, 0, 2, 0.0, {}},
       {-1, 0.0, 0, 0, 0.0, {0.5, 0.5}}});
  EXPECT_THROW(load_payload(payload), InvalidArgument);
}

TEST(TreeLoad, RejectsOutOfRangeChild) {
  const auto payload = tree_payload(
      0, 2, 1,
      {{0, 0.5, 1, 7, 0.0, {}},
       {-1, 0.0, 0, 0, 0.0, {1.0, 0.0}}});
  EXPECT_THROW(load_payload(payload), InvalidArgument);
}

TEST(TreeLoad, RejectsOutOfRangeFeature) {
  const auto payload = tree_payload(
      0, 2, 2,
      {{5, 0.5, 1, 2, 0.0, {}},
       {-1, 0.0, 0, 0, 0.0, {1.0, 0.0}},
       {-1, 0.0, 0, 0, 0.0, {0.0, 1.0}}});
  EXPECT_THROW(load_payload(payload), InvalidArgument);
}

TEST(TreeLoad, RejectsLeafDistributionWidthMismatch) {
  // Classification leaf carrying three probabilities in a 2-class tree.
  const auto payload = tree_payload(
      0, 2, 1, {{-1, 0.0, 0, 0, 0.0, {0.5, 0.25, 0.25}}});
  EXPECT_THROW(load_payload(payload), InvalidArgument);
}

TEST(TreeLoad, RoundTripsTrainedTree) {
  Matrix X;
  std::vector<int> y;
  make_discrete_problem(200, 6, X, y, 51);
  TreeConfig cfg;
  cfg.split_algo = SplitAlgo::kHist;
  DecisionTreeClassifier tree(cfg, 4);
  tree.fit(X, y, 3);
  // Round-trip through the engine-level save/load.
  std::vector<std::size_t> all(X.rows());
  std::iota(all.begin(), all.end(), 0);
  Rng rng(4);
  detail::TreeEngine engine(detail::TreeEngine::Task::kClassification, cfg);
  engine.fit(X, y, {}, 3, all, rng);
  std::stringstream buf;
  engine.save(buf);
  const auto loaded = detail::TreeEngine::load(buf);
  EXPECT_EQ(loaded.node_count(), engine.node_count());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto pa = engine.leaf_probs(X.row(r));
    const auto pb = loaded.leaf_probs(X.row(r));
    for (std::size_t c = 0; c < pa.size(); ++c) {
      ASSERT_EQ(pa[c], pb[c]) << "row " << r;
    }
  }
}

}  // namespace
}  // namespace xdmodml::ml
