// The paper's primary contribution as a reusable pipeline: train a
// classifier on SUPReMM job summaries, predict application (or category,
// or efficiency) labels with calibrated probabilities, and run the
// probability-threshold analyses of Figures 1–4.
//
// The pipeline standardizes features (z-score, fit on the training set),
// then trains one of the three model families the paper evaluates:
// RBF-SVM (γ = 0.1, C = 1000 — the paper's settings), random forest, or
// Gaussian naive Bayes.
#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/dataset.hpp"
#include "ml/metrics.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "supremm/job_summary.hpp"

namespace xdmodml::core {

/// Model family selector.
enum class Algorithm { kSvm, kRandomForest, kNaiveBayes };

const char* algorithm_name(Algorithm algorithm);

/// Pipeline configuration.
struct JobClassifierConfig {
  Algorithm algorithm = Algorithm::kSvm;
  supremm::AttributeSchema schema = supremm::AttributeSchema::full();
  ml::SvmConfig svm{};        ///< defaults are the paper's γ=0.1, C=1000
  ml::ForestConfig forest{};
  std::uint64_t seed = 1;
};

/// A labeled prediction.
struct LabeledPrediction {
  std::string class_name;
  int label = -1;
  double probability = 0.0;
};

/// Train → standardize → predict pipeline.
class JobClassifier {
 public:
  explicit JobClassifier(JobClassifierConfig config);

  /// Trains on a labeled dataset (its class_names fix the label space).
  /// The dataset's features must follow this classifier's schema.
  void train(const ml::Dataset& train_set);

  bool trained() const { return model_ != nullptr; }

  /// One-line description of the trained model for operational reports:
  /// algorithm, class count, and — for the SVM — the machine count and
  /// the support-vector pool's stats.
  std::string model_info() const;

  const std::vector<std::string>& class_names() const { return class_names_; }
  const supremm::AttributeSchema& schema() const { return config_.schema; }
  const JobClassifierConfig& config() const { return config_; }

  /// Predicts one job summary.  Throws InvalidArgument when one of its
  /// schema features is not finite (see standardize_features).
  LabeledPrediction predict(const supremm::JobSummary& job) const;

  /// Predicts a raw (unstandardized) feature row under the schema.
  /// Throws InvalidArgument when the row fails standardize_features.
  LabeledPrediction predict_features(std::span<const double> features) const;

  /// Standardizes one raw feature row of this schema in place.  Throws
  /// InvalidArgument, leaving the row as it was, unless it has the
  /// schema's width and every value is finite; the message names the
  /// first NaN or infinite attribute.  (The job CSV grammar accepts
  /// `nan` and `inf`; a model fed one returns a meaningless label.)
  void standardize_features(std::span<double> features) const;

  /// Batch prediction over rows that standardize_features prepared, one
  /// job per row: all rows with one `predict_batch_with_probability`
  /// call (a single row goes to `predict_with_probability`).  Row i's
  /// result equals predict_features(raw row i) bit for bit.
  std::vector<LabeledPrediction> predict_standardized_batch(
      const Matrix& standardized) const;

  /// Batch prediction over a feature-compatible dataset.
  std::vector<ml::Prediction> predict_dataset(const ml::Dataset& ds) const;

  /// Full evaluation on a labeled test set.
  struct Evaluation {
    ml::ConfusionMatrix confusion;
    double accuracy = 0.0;
    std::vector<ml::ThresholdPoint> threshold_curve;  ///< Figures 1/2
    std::vector<ml::Prediction> predictions;
  };
  Evaluation evaluate(const ml::Dataset& test_set) const;

  /// Threshold curve for an *unlabeled* pool (Figures 3/4).
  std::vector<ml::ThresholdPoint> threshold_curve_unlabeled(
      const ml::Dataset& pool) const;

  /// Access to the underlying forest (importance analyses); throws unless
  /// the algorithm is kRandomForest.
  const ml::RandomForestClassifier& forest() const;

  /// The fitted standardizer (needed to feed the forest training data
  /// back for permutation importance).
  const ml::Standardizer& standardizer() const { return standardizer_; }

  /// Persists a trained pipeline (schema + standardizer + model) so a
  /// production deployment can classify without retraining — the paper's
  /// stated goal of turning this analysis "into production tools for use
  /// in XDMoD".
  void save(std::ostream& out) const;
  static JobClassifier load(std::istream& in);

 private:
  LabeledPrediction labeled(const ml::Prediction& pred) const;

  JobClassifierConfig config_;
  ml::Standardizer standardizer_;
  std::unique_ptr<ml::Classifier> model_;
  std::vector<std::string> class_names_;
};

}  // namespace xdmodml::core
