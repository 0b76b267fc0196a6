// Integration tests for the core JobClassifier pipeline on generated
// workloads, plus the importance / predictor-sweep analyses.
#include "core/importance.hpp"
#include "core/job_classifier.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

namespace xdmodml::core {
namespace {

using workload::GeneratedJob;
using workload::WorkloadGenerator;

/// Shared fixture data: one generator, modest train/test pools over a
/// subset of applications so the SVM stays fast.
class JobClassifierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    gen_ = new WorkloadGenerator(WorkloadGenerator::standard({}, 99));
    const std::vector<std::string> apps{"VASP", "NAMD", "GROMACS",
                                        "PYTHON", "GAUSSIAN", "WRF"};
    apps_ = apps;
    for (const auto& app : apps) {
      auto jobs = gen_->generate_for(app, 60);
      train_jobs_.insert(train_jobs_.end(),
                         std::make_move_iterator(jobs.begin()),
                         std::make_move_iterator(jobs.end()));
      auto test = gen_->generate_for(app, 25);
      test_jobs_.insert(test_jobs_.end(),
                        std::make_move_iterator(test.begin()),
                        std::make_move_iterator(test.end()));
    }
    schema_ = new supremm::AttributeSchema(supremm::AttributeSchema::full());
    train_ = new ml::Dataset(workload::build_summary_dataset(
        train_jobs_, *schema_, supremm::label_by_application(), apps_));
    test_ = new ml::Dataset(workload::build_summary_dataset(
        test_jobs_, *schema_, supremm::label_by_application(), apps_));
  }

  static void TearDownTestSuite() {
    delete gen_;
    delete schema_;
    delete train_;
    delete test_;
    gen_ = nullptr;
    schema_ = nullptr;
    train_ = nullptr;
    test_ = nullptr;
  }

  static WorkloadGenerator* gen_;
  static std::vector<std::string> apps_;
  static std::vector<GeneratedJob> train_jobs_;
  static std::vector<GeneratedJob> test_jobs_;
  static supremm::AttributeSchema* schema_;
  static ml::Dataset* train_;
  static ml::Dataset* test_;
};

WorkloadGenerator* JobClassifierTest::gen_ = nullptr;
std::vector<std::string> JobClassifierTest::apps_;
std::vector<GeneratedJob> JobClassifierTest::train_jobs_;
std::vector<GeneratedJob> JobClassifierTest::test_jobs_;
supremm::AttributeSchema* JobClassifierTest::schema_ = nullptr;
ml::Dataset* JobClassifierTest::train_ = nullptr;
ml::Dataset* JobClassifierTest::test_ = nullptr;

TEST_F(JobClassifierTest, RandomForestClassifiesApplications) {
  JobClassifierConfig cfg;
  cfg.algorithm = Algorithm::kRandomForest;
  cfg.forest.num_trees = 80;
  JobClassifier clf(cfg);
  clf.train(*train_);
  const auto eval = clf.evaluate(*test_);
  EXPECT_GT(eval.accuracy, 0.9);
  EXPECT_EQ(eval.confusion.num_classes(), apps_.size());
}

TEST_F(JobClassifierTest, SvmClassifiesApplications) {
  JobClassifierConfig cfg;
  cfg.algorithm = Algorithm::kSvm;  // paper settings: RBF γ=0.1, C=1000
  JobClassifier clf(cfg);
  clf.train(*train_);
  const auto eval = clf.evaluate(*test_);
  EXPECT_GT(eval.accuracy, 0.85);
  // Threshold curve is monotone in the descending grid.
  for (std::size_t i = 1; i < eval.threshold_curve.size(); ++i) {
    EXPECT_LE(eval.threshold_curve[i - 1].classified_fraction,
              eval.threshold_curve[i].classified_fraction);
  }
}

TEST_F(JobClassifierTest, PredictSingleJobGivesNamedClass) {
  JobClassifierConfig cfg;
  cfg.algorithm = Algorithm::kRandomForest;
  cfg.forest.num_trees = 50;
  JobClassifier clf(cfg);
  clf.train(*train_);
  const auto pred = clf.predict(test_jobs_.front().summary);
  EXPECT_FALSE(pred.class_name.empty());
  EXPECT_GE(pred.probability, 0.0);
  EXPECT_LE(pred.probability, 1.0);
  EXPECT_EQ(pred.class_name,
            clf.class_names()[static_cast<std::size_t>(pred.label)]);
}

TEST_F(JobClassifierTest, UnknownPoolGetsLowProbabilities) {
  JobClassifierConfig cfg;
  cfg.algorithm = Algorithm::kSvm;
  JobClassifier clf(cfg);
  clf.train(*train_);
  const auto eval = clf.evaluate(*test_);
  const auto pool_jobs = gen_->generate_uncategorized(100);
  const auto pool = workload::build_summary_pool(pool_jobs, *schema_);
  const auto pool_curve = clf.threshold_curve_unlabeled(pool);
  const auto& test_curve = eval.threshold_curve;
  // At the 0.8 threshold, far fewer pool jobs classify than test jobs —
  // the Figure 1 vs Figure 3 contrast.
  auto at = [](const std::vector<ml::ThresholdPoint>& curve, double t) {
    for (const auto& pt : curve) {
      if (std::abs(pt.threshold - t) < 1e-9) return pt.classified_fraction;
    }
    return -1.0;
  };
  const double pool_frac = at(pool_curve, 0.8);
  const double test_frac = at(test_curve, 0.8);
  ASSERT_GE(pool_frac, 0.0);
  ASSERT_GE(test_frac, 0.0);
  EXPECT_LT(pool_frac, test_frac * 0.6);
}

TEST_F(JobClassifierTest, NaiveBayesWorksButUnderperformsOnEfficiency) {
  JobClassifierConfig cfg;
  cfg.algorithm = Algorithm::kNaiveBayes;
  JobClassifier clf(cfg);
  clf.train(*train_);
  const auto eval = clf.evaluate(*test_);
  EXPECT_GT(eval.accuracy, 0.3);  // works at all
}

TEST_F(JobClassifierTest, SchemaMismatchRejected) {
  JobClassifierConfig cfg;
  cfg.algorithm = Algorithm::kRandomForest;
  JobClassifier clf(cfg);
  ml::Dataset narrow = *train_;
  const std::vector<std::size_t> one{0};
  narrow = narrow.select_features(one);
  EXPECT_THROW(clf.train(narrow), InvalidArgument);
  EXPECT_THROW(clf.predict(test_jobs_.front().summary), InvalidArgument);
}

TEST_F(JobClassifierTest, NonFiniteTrainingFeatureRejected) {
  // One NaN or infinity in one training row is rejected, naming the
  // attribute, before any model or standardizer sees it.
  constexpr std::size_t kRow = 7;
  constexpr std::size_t kCol = 3;
  const auto nan = std::numeric_limits<double>::quiet_NaN();
  const auto inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, std::string>> cases{
      {nan, "nan"}, {-nan, "nan"}, {inf, "inf"}, {-inf, "-inf"}};
  const std::string name = schema_->attributes()[kCol].name();
  for (const auto algorithm : {Algorithm::kSvm, Algorithm::kRandomForest,
                               Algorithm::kNaiveBayes}) {
    for (const auto& [value, token] : cases) {
      SCOPED_TRACE(std::string(algorithm_name(algorithm)) + " " + token);
      ml::Dataset poisoned = *train_;
      poisoned.X(kRow, kCol) = value;
      JobClassifierConfig cfg;
      cfg.algorithm = algorithm;
      JobClassifier clf(cfg);
      try {
        clf.train(poisoned);
        ADD_FAILURE() << "trained on a non-finite feature";
      } catch (const InvalidArgument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("non-finite feature " + name + " = " + token),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("row " + std::to_string(kRow)),
                  std::string::npos)
            << message;
      }
      EXPECT_FALSE(clf.trained());
    }
  }
}

TEST_F(JobClassifierTest, ForestAccessorGuarded) {
  JobClassifierConfig cfg;
  cfg.algorithm = Algorithm::kSvm;
  JobClassifier clf(cfg);
  clf.train(*train_);
  EXPECT_THROW(clf.forest(), InvalidArgument);
}

TEST_F(JobClassifierTest, ImportanceRanksCpuMemoryAttributesHighly) {
  ml::ForestConfig fc;
  fc.num_trees = 80;
  const auto ranking = rank_attributes(*train_, fc, 3);
  ASSERT_EQ(ranking.size(), schema_->size());
  // Descending order.
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_GE(ranking[i - 1].mean_decrease_accuracy,
              ranking[i].mean_decrease_accuracy);
  }
  // The paper's top attributes are CPU/memory ones; check that at least
  // three of the top eight are from {CPI, CPLD, CPU_SYSTEM, MEMORY_USED,
  // MEMORY_TRANSFERRED, FLOPS}.
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& name = ranking[i].name;
    if (name == "CPI" || name == "CPLD" || name == "CPU_SYSTEM" ||
        name == "MEMORY_USED" || name == "MEMORY_TRANSFERRED" ||
        name == "FLOPS") {
      ++hits;
    }
  }
  EXPECT_GE(hits, 3u);
}

TEST_F(JobClassifierTest, PredictorSweepDegradesGracefully) {
  ml::ForestConfig fc;
  fc.num_trees = 60;
  const auto ranking = rank_attributes(*train_, fc, 4);
  const std::vector<std::size_t> counts{ranking.size(), 10, 5, 2, 1};
  const auto sweep = predictor_sweep(*train_, *test_, ranking, counts, fc, 4);
  ASSERT_EQ(sweep.size(), counts.size());
  // Full set is strong; five predictors still decent; one predictor worse.
  EXPECT_GT(sweep[0].accuracy, 0.9);
  EXPECT_GT(sweep[2].accuracy, 0.6);
  EXPECT_LT(sweep.back().accuracy, sweep.front().accuracy);
  EXPECT_EQ(sweep[2].attributes.size(), 5u);
}

TEST(DefaultSweepCounts, ShapeAndBounds) {
  const auto counts = default_sweep_counts(48);
  EXPECT_EQ(counts.front(), 48u);
  EXPECT_EQ(counts.back(), 1u);
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_LT(counts[i], counts[i - 1]);
  }
  const auto tiny = default_sweep_counts(3);
  EXPECT_EQ(tiny.front(), 3u);
  EXPECT_EQ(tiny.back(), 1u);
}

TEST(AlgorithmNames, Stable) {
  EXPECT_STREQ(algorithm_name(Algorithm::kSvm), "svm");
  EXPECT_STREQ(algorithm_name(Algorithm::kRandomForest), "randomForest");
  EXPECT_STREQ(algorithm_name(Algorithm::kNaiveBayes), "naiveBayes");
}

}  // namespace
}  // namespace xdmodml::core
