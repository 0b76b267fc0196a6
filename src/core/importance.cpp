#include "core/importance.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "ml/binned_dataset.hpp"
#include "ml/metrics.hpp"
#include "util/error.hpp"

namespace xdmodml::core {

std::vector<RankedAttribute> rank_attributes(const ml::Dataset& train,
                                             const ml::ForestConfig& config,
                                             std::uint64_t seed) {
  XDMODML_CHECK(!train.labels.empty(), "ranking requires a labeled dataset");
  ml::Standardizer standardizer;
  const Matrix standardized = standardizer.fit_transform(train.X);
  ml::RandomForestClassifier forest(config, seed);
  forest.fit(standardized, train.labels,
             static_cast<int>(train.num_classes()));
  const auto importances =
      forest.permutation_importance(standardized, train.labels, seed + 1);

  std::vector<RankedAttribute> ranked;
  ranked.reserve(importances.size());
  for (const auto& imp : importances) {
    RankedAttribute r;
    r.schema_index = imp.feature;
    r.name = imp.feature < train.feature_names.size()
                 ? train.feature_names[imp.feature]
                 : "attr" + std::to_string(imp.feature);
    r.mean_decrease_accuracy = imp.mean_decrease_accuracy;
    r.mean_decrease_impurity = imp.mean_decrease_impurity;
    ranked.push_back(std::move(r));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedAttribute& a, const RankedAttribute& b) {
              return a.mean_decrease_accuracy > b.mean_decrease_accuracy;
            });
  return ranked;
}

std::vector<SweepPoint> predictor_sweep(
    const ml::Dataset& train, const ml::Dataset& test,
    const std::vector<RankedAttribute>& ranking,
    const std::vector<std::size_t>& counts, const ml::ForestConfig& config,
    std::uint64_t seed) {
  XDMODML_CHECK(!ranking.empty(), "sweep requires a ranking");
  XDMODML_CHECK(!counts.empty(), "sweep requires cutoff counts");

  // Trees are invariant to monotone per-feature transforms, so the sweep
  // forests run on the raw features — which lets the full training table
  // be quantile-binned ONCE here, with every cutoff's forest reusing the
  // column subset of the shared codes instead of re-binning per k.
  std::shared_ptr<const ml::BinnedDataset> binned_full;
  if (config.tree.split_algo == ml::SplitAlgo::kHist) {
    binned_full = std::make_shared<const ml::BinnedDataset>(train.X);
  }
  std::vector<std::size_t> all_rows(train.size());
  std::iota(all_rows.begin(), all_rows.end(), 0);

  std::vector<SweepPoint> points;
  points.reserve(counts.size());
  for (const auto k : counts) {
    XDMODML_CHECK(k >= 1 && k <= ranking.size(),
                  "sweep count out of range");
    std::vector<std::size_t> keep;
    SweepPoint pt;
    pt.num_predictors = k;
    for (std::size_t i = 0; i < k; ++i) {
      keep.push_back(ranking[i].schema_index);
      pt.attributes.push_back(ranking[i].name);
    }
    const auto sub_train = train.select_features(keep);
    const auto sub_test = test.select_features(keep);

    std::shared_ptr<const ml::BinnedDataset> sub_binned;
    if (binned_full != nullptr) {
      sub_binned = std::make_shared<const ml::BinnedDataset>(
          binned_full->select_features(keep));
    }
    ml::RandomForestClassifier forest(config, seed);
    forest.fit_rows(sub_train.X, sub_train.labels,
                    static_cast<int>(sub_train.num_classes()), all_rows,
                    sub_binned);
    const auto predictions = forest.predict_batch(sub_test.X);
    pt.accuracy = ml::accuracy(sub_test.labels, predictions);
    points.push_back(std::move(pt));
  }
  return points;
}

std::vector<std::size_t> default_sweep_counts(std::size_t num_attributes) {
  XDMODML_CHECK(num_attributes >= 1, "need at least one attribute");
  std::vector<std::size_t> counts;
  for (std::size_t k = num_attributes; k > 20; k -= 5) counts.push_back(k);
  for (const std::size_t k : {20, 15, 10, 8, 6, 5, 4, 3, 2, 1}) {
    if (k <= num_attributes &&
        (counts.empty() || k < counts.back())) {
      counts.push_back(k);
    }
  }
  return counts;
}

}  // namespace xdmodml::core
