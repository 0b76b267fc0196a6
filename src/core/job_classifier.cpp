#include "core/job_classifier.hpp"

#include <cmath>
#include <sstream>

#include "ml/model_io.hpp"
#include "ml/svm_plan.hpp"
#include "util/error.hpp"

namespace xdmodml::core {

namespace {

/// Message for a NaN or infinite feature, shared by the training and
/// serving gates.
std::string non_finite_feature(const supremm::Attribute& attr, double v) {
  return "non-finite feature " + attr.name() + " = " +
         (std::isnan(v) ? "nan" : v > 0 ? "inf" : "-inf");
}

}  // namespace

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSvm:
      return "svm";
    case Algorithm::kRandomForest:
      return "randomForest";
    case Algorithm::kNaiveBayes:
      return "naiveBayes";
  }
  return "?";
}

JobClassifier::JobClassifier(JobClassifierConfig config)
    : config_(std::move(config)) {}

void JobClassifier::train(const ml::Dataset& train_set) {
  train_set.validate();
  XDMODML_CHECK(!train_set.labels.empty(),
                "JobClassifier requires a labeled training set");
  XDMODML_CHECK(train_set.num_features() == config_.schema.size(),
                "training features do not match the classifier schema");
  // A NaN or infinity would poison its column's standardizer mean, and
  // with it every row of that column.
  const auto& attrs = config_.schema.attributes();
  for (std::size_t r = 0; r < train_set.X.rows(); ++r) {
    const auto row = train_set.X.row(r);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (!std::isfinite(row[i])) {
        throw InvalidArgument(non_finite_feature(attrs[i], row[i]) +
                              " in training row " + std::to_string(r));
      }
    }
  }
  class_names_ = train_set.class_names;

  const Matrix standardized = standardizer_.fit_transform(train_set.X);
  switch (config_.algorithm) {
    case Algorithm::kSvm:
      model_ = std::make_unique<ml::SvmClassifier>(config_.svm, config_.seed);
      break;
    case Algorithm::kRandomForest:
      model_ = std::make_unique<ml::RandomForestClassifier>(config_.forest,
                                                            config_.seed);
      break;
    case Algorithm::kNaiveBayes:
      model_ = std::make_unique<ml::NaiveBayesClassifier>();
      break;
  }
  model_->fit(standardized, train_set.labels,
              static_cast<int>(class_names_.size()));
}

std::string JobClassifier::model_info() const {
  XDMODML_CHECK(trained(), "model_info before train");
  std::ostringstream out;
  out << algorithm_name(config_.algorithm) << ", " << class_names_.size()
      << " classes";
  if (config_.algorithm == Algorithm::kSvm) {
    const auto& svm = static_cast<const ml::SvmClassifier&>(*model_);
    const auto& plan = svm.inference_plan();
    std::ostringstream ratio;
    ratio.precision(2);
    ratio << std::fixed << plan.dedup_ratio();
    out << ", " << svm.num_machines() << " machines, plan "
        << plan.unique_support_vectors() << "/"
        << plan.total_support_vectors() << " SVs (dedup " << ratio.str()
        << "x, " << plan.pool_bytes() / 1024 << " KiB f64)";
  }
  return out.str();
}

LabeledPrediction JobClassifier::predict(
    const supremm::JobSummary& job) const {
  return predict_features(job.extract(config_.schema));
}

void JobClassifier::standardize_features(std::span<double> features) const {
  XDMODML_CHECK(trained(), "predict before train");
  const auto& attrs = config_.schema.attributes();
  XDMODML_CHECK(features.size() == attrs.size(),
                "feature row does not match the classifier schema");
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (!std::isfinite(features[i])) {
      throw InvalidArgument(non_finite_feature(attrs[i], features[i]));
    }
  }
  standardizer_.transform_row(features);
}

LabeledPrediction JobClassifier::labeled(const ml::Prediction& pred) const {
  LabeledPrediction out;
  out.label = pred.label;
  out.probability = pred.probability;
  out.class_name = class_names_[static_cast<std::size_t>(pred.label)];
  return out;
}

LabeledPrediction JobClassifier::predict_features(
    std::span<const double> features) const {
  std::vector<double> row(features.begin(), features.end());
  standardize_features(row);
  return labeled(model_->predict_with_probability(row));
}

std::vector<LabeledPrediction> JobClassifier::predict_standardized_batch(
    const Matrix& standardized) const {
  XDMODML_CHECK(trained(), "predict before train");
  std::vector<LabeledPrediction> out;
  out.reserve(standardized.rows());
  if (standardized.rows() == 1) {
    out.push_back(
        labeled(model_->predict_with_probability(standardized.row(0))));
    return out;
  }
  for (const auto& pred :
       model_->predict_batch_with_probability(standardized)) {
    out.push_back(labeled(pred));
  }
  return out;
}

std::vector<ml::Prediction> JobClassifier::predict_dataset(
    const ml::Dataset& ds) const {
  XDMODML_CHECK(trained(), "predict before train");
  XDMODML_CHECK(ds.num_features() == config_.schema.size(),
                "dataset features do not match the classifier schema");
  const Matrix standardized = standardizer_.transform(ds.X);
  return model_->predict_batch_with_probability(standardized);
}

JobClassifier::Evaluation JobClassifier::evaluate(
    const ml::Dataset& test_set) const {
  XDMODML_CHECK(!test_set.labels.empty(), "evaluate requires labels");
  Evaluation eval{ml::ConfusionMatrix(class_names_.size()), 0.0, {}, {}};
  eval.predictions = predict_dataset(test_set);
  for (std::size_t i = 0; i < eval.predictions.size(); ++i) {
    eval.confusion.add(test_set.labels[i], eval.predictions[i].label);
  }
  eval.accuracy = eval.confusion.accuracy();
  const auto grid = ml::default_threshold_grid();
  eval.threshold_curve =
      ml::threshold_sweep(eval.predictions, test_set.labels, grid);
  return eval;
}

std::vector<ml::ThresholdPoint> JobClassifier::threshold_curve_unlabeled(
    const ml::Dataset& pool) const {
  const auto predictions = predict_dataset(pool);
  const auto grid = ml::default_threshold_grid();
  return ml::threshold_sweep(predictions, {}, grid);
}

void JobClassifier::save(std::ostream& out) const {
  XDMODML_CHECK(trained(), "cannot save an untrained JobClassifier");
  XDMODML_CHECK(config_.algorithm != Algorithm::kNaiveBayes ||
                    dynamic_cast<ml::NaiveBayesClassifier*>(model_.get()),
                "model/algorithm mismatch");
  ml::io::write_tag(out, "job-classifier-v1");
  ml::io::write_string(out, "algorithm",
                       algorithm_name(config_.algorithm));
  ml::io::write_scalar(out, "classes",
                       static_cast<std::int64_t>(class_names_.size()));
  for (const auto& name : class_names_) {
    ml::io::write_string(out, "class", name);
  }
  const auto& attrs = config_.schema.attributes();
  ml::io::write_scalar(out, "attributes",
                       static_cast<std::int64_t>(attrs.size()));
  for (const auto& attr : attrs) {
    ml::io::write_scalar(out, "metric",
                         static_cast<std::int64_t>(attr.metric));
    ml::io::write_scalar(out, "cov",
                         static_cast<std::int64_t>(attr.is_cov ? 1 : 0));
  }
  standardizer_.save(out);
  switch (config_.algorithm) {
    case Algorithm::kSvm:
      static_cast<const ml::SvmClassifier&>(*model_).save(out);
      break;
    case Algorithm::kRandomForest:
      static_cast<const ml::RandomForestClassifier&>(*model_).save(out);
      break;
    case Algorithm::kNaiveBayes:
      static_cast<const ml::NaiveBayesClassifier&>(*model_).save(out);
      break;
  }
}

JobClassifier JobClassifier::load(std::istream& in) {
  ml::io::TokenReader reader(in);
  reader.expect("job-classifier-v1");
  const auto algorithm_text = reader.read_string("algorithm");

  JobClassifierConfig config;
  if (algorithm_text == "svm") {
    config.algorithm = Algorithm::kSvm;
  } else if (algorithm_text == "randomForest") {
    config.algorithm = Algorithm::kRandomForest;
  } else if (algorithm_text == "naiveBayes") {
    config.algorithm = Algorithm::kNaiveBayes;
  } else {
    throw InvalidArgument("unknown serialized algorithm: " + algorithm_text);
  }

  const auto class_count = reader.read_int("classes");
  XDMODML_CHECK(class_count > 0, "corrupt class count");
  std::vector<std::string> class_names;
  for (std::int64_t i = 0; i < class_count; ++i) {
    class_names.push_back(reader.read_string("class"));
  }

  const auto attr_count = reader.read_int("attributes");
  XDMODML_CHECK(attr_count > 0, "corrupt attribute count");
  std::vector<supremm::Attribute> attrs;
  for (std::int64_t i = 0; i < attr_count; ++i) {
    const auto metric = reader.read_int("metric");
    XDMODML_CHECK(metric >= 0 &&
                      metric < static_cast<std::int64_t>(
                                   supremm::kNumMetrics),
                  "corrupt attribute metric");
    const bool is_cov = reader.read_int("cov") != 0;
    attrs.push_back({static_cast<supremm::MetricId>(metric), is_cov});
  }
  config.schema = supremm::AttributeSchema(std::move(attrs));

  JobClassifier clf(std::move(config));
  clf.class_names_ = std::move(class_names);
  clf.standardizer_ = ml::Standardizer::load(in);
  switch (clf.config_.algorithm) {
    case Algorithm::kSvm:
      clf.model_ = std::make_unique<ml::SvmClassifier>(
          ml::SvmClassifier::load(in));
      break;
    case Algorithm::kRandomForest:
      clf.model_ = std::make_unique<ml::RandomForestClassifier>(
          ml::RandomForestClassifier::load(in));
      break;
    case Algorithm::kNaiveBayes:
      clf.model_ = std::make_unique<ml::NaiveBayesClassifier>(
          ml::NaiveBayesClassifier::load(in));
      break;
  }
  XDMODML_CHECK(clf.model_->num_classes() ==
                    static_cast<int>(clf.class_names_.size()),
                "serialized model class count mismatch");
  return clf;
}

const ml::RandomForestClassifier& JobClassifier::forest() const {
  XDMODML_CHECK(config_.algorithm == Algorithm::kRandomForest && trained(),
                "forest() requires a trained random-forest classifier");
  return static_cast<const ml::RandomForestClassifier&>(*model_);
}

}  // namespace xdmodml::core
