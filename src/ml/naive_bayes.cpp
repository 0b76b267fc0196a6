#include "ml/naive_bayes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "ml/model_io.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace xdmodml::ml {

NaiveBayesClassifier::NaiveBayesClassifier(double var_smoothing)
    : var_smoothing_(var_smoothing) {
  XDMODML_CHECK(var_smoothing >= 0.0, "var_smoothing must be >= 0");
}

void NaiveBayesClassifier::fit(const Matrix& X, std::span<const int> y,
                               int num_classes) {
  XDMODML_CHECK(X.rows() == y.size() && X.rows() > 0,
                "fit requires matching non-empty X and y");
  XDMODML_CHECK(num_classes > 0, "num_classes must be positive");
  num_classes_ = num_classes;
  num_features_ = X.cols();
  const auto k = static_cast<std::size_t>(num_classes);

  std::vector<std::vector<RunningStats>> acc(
      k, std::vector<RunningStats>(num_features_));
  std::vector<std::size_t> counts(k, 0);
  for (std::size_t r = 0; r < X.rows(); ++r) {
    XDMODML_CHECK(y[r] >= 0 && y[r] < num_classes, "label out of range");
    const auto c = static_cast<std::size_t>(y[r]);
    ++counts[c];
    const auto row = X.row(r);
    for (std::size_t f = 0; f < num_features_; ++f) acc[c][f].add(row[f]);
  }

  // Global variance ceiling for the smoothing term.
  double max_var = 0.0;
  for (std::size_t f = 0; f < num_features_; ++f) {
    RunningStats rs;
    for (std::size_t r = 0; r < X.rows(); ++r) rs.add(X(r, f));
    max_var = std::max(max_var, rs.population_variance());
  }
  const double eps = var_smoothing_ * std::max(max_var, 1.0);

  log_priors_.assign(k, -std::numeric_limits<double>::infinity());
  means_.assign(k * num_features_, 0.0);
  vars_.assign(k * num_features_, eps);
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;  // prior stays -inf: never predicted
    log_priors_[c] = std::log(static_cast<double>(counts[c]) /
                              static_cast<double>(X.rows()));
    for (std::size_t f = 0; f < num_features_; ++f) {
      means_[c * num_features_ + f] = acc[c][f].mean();
      vars_[c * num_features_ + f] =
          acc[c][f].population_variance() + std::max(eps, 1e-300);
    }
  }
}

void NaiveBayesClassifier::save(std::ostream& out) const {
  XDMODML_CHECK(num_classes_ > 0, "cannot save an untrained model");
  io::write_tag(out, "naive-bayes-v1");
  io::write_scalar(out, "classes",
                   static_cast<std::int64_t>(num_classes_));
  io::write_scalar(out, "features",
                   static_cast<std::int64_t>(num_features_));
  // -inf priors (never-seen classes) are encoded as a sentinel.
  std::vector<double> priors = log_priors_;
  for (auto& p : priors) {
    if (std::isinf(p)) p = -1e308;
  }
  io::write_vector(out, "log_priors", priors);
  io::write_vector(out, "means", means_);
  io::write_vector(out, "vars", vars_);
}

NaiveBayesClassifier NaiveBayesClassifier::load(std::istream& in) {
  io::TokenReader reader(in);
  reader.expect("naive-bayes-v1");
  NaiveBayesClassifier nb;
  nb.num_classes_ = reader.read_count("classes", 1);
  nb.num_features_ = static_cast<std::size_t>(reader.read_count("features", 1));
  nb.log_priors_ = reader.read_vector("log_priors");
  for (auto& p : nb.log_priors_) {
    if (p <= -1e308) p = -std::numeric_limits<double>::infinity();
  }
  nb.means_ = reader.read_vector("means");
  nb.vars_ = reader.read_vector("vars");
  const auto k = static_cast<std::size_t>(nb.num_classes_);
  XDMODML_CHECK(nb.log_priors_.size() == k &&
                    nb.means_.size() == k * nb.num_features_ &&
                    nb.vars_.size() == k * nb.num_features_,
                "corrupt naive-bayes stream");
  for (const double v : nb.vars_) {
    XDMODML_CHECK(v > 0.0, "corrupt naive-bayes variance");
  }
  return nb;
}

std::vector<double> NaiveBayesClassifier::predict_proba(
    std::span<const double> x) const {
  XDMODML_CHECK(num_classes_ > 0, "predict before fit");
  XDMODML_CHECK(x.size() == num_features_, "feature width mismatch");
  const auto k = static_cast<std::size_t>(num_classes_);
  std::vector<double> log_post(k);
  for (std::size_t c = 0; c < k; ++c) {
    double lp = log_priors_[c];
    if (std::isinf(lp)) {
      log_post[c] = lp;
      continue;
    }
    for (std::size_t f = 0; f < num_features_; ++f) {
      const double mu = means_[c * num_features_ + f];
      const double var = vars_[c * num_features_ + f];
      const double d = x[f] - mu;
      lp += -0.5 * (std::log(2.0 * std::numbers::pi * var) + d * d / var);
    }
    log_post[c] = lp;
  }
  // Softmax in log space.
  const double mx = *std::max_element(log_post.begin(), log_post.end());
  std::vector<double> proba(k, 0.0);
  if (std::isinf(mx)) {  // no class observed — uniform fallback
    std::fill(proba.begin(), proba.end(), 1.0 / static_cast<double>(k));
    return proba;
  }
  double total = 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    proba[c] = std::exp(log_post[c] - mx);
    total += proba[c];
  }
  for (auto& p : proba) p /= total;
  return proba;
}

}  // namespace xdmodml::ml
