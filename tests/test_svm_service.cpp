// SVM-backed tests of the batched serving path: ClassificationService
// over one-vs-one JobClassifiers (rbf, poly, linear; with and without
// Platt outputs).  `ingest_batch` gathers the jobs the classifier must
// see into one feature matrix and predicts them with one batched call
// (query tiles against the shared support-vector pool), so these tests
// pin what that must never change: every result equals a serial
// `ingest` loop's bit for bit, whatever the batch shape or a job's
// position in it; a job with a non-finite feature fails alone; the
// classify deadline covers the batched prediction; and a pool fault
// during the batched prediction recovers to bit-identical results.
// Registered under tier1, tier1-infer and tier1-fault.
#include "core/classification_service.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "supremm/summary_io.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

namespace xdmodml::core {
namespace {

using Outcome = ClassificationService::Outcome;
using supremm::JobSummary;

struct ServedModel {
  std::string name;
  std::shared_ptr<const JobClassifier> classifier;
};

class SvmServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto gen = workload::WorkloadGenerator::standard({}, 321);
    // Four applications keep the one-vs-one fits small (6 machines).
    std::vector<std::string> apps;
    std::vector<workload::GeneratedJob> train_jobs;
    for (const auto& sig : gen.signatures()) {
      if (sig.application.empty() || apps.size() == 4) continue;
      apps.push_back(sig.application);
      for (auto& job : gen.generate_for(apps.back(), 30)) {
        train_jobs.push_back(std::move(job));
      }
    }
    const auto train = workload::build_summary_dataset(
        train_jobs, supremm::AttributeSchema::full(),
        supremm::label_by_application(), apps);

    models_ = new std::vector<ServedModel>();
    const std::pair<const char*, ml::Kernel> kernels[] = {
        {"rbf", ml::Kernel::rbf(0.1)},
        {"poly", ml::Kernel::polynomial(2.0, 0.05, 1.0)},
        {"linear", ml::Kernel::linear()}};
    for (const auto& [name, kernel] : kernels) {
      for (const bool probability : {true, false}) {
        JobClassifierConfig cfg;
        cfg.algorithm = Algorithm::kSvm;
        cfg.svm.kernel = kernel;
        cfg.svm.c = 10.0;
        cfg.svm.probability = probability;
        cfg.svm.platt_cv_folds = 2;
        auto clf = std::make_shared<JobClassifier>(cfg);
        clf->train(train);
        models_->push_back({std::string(name) + (probability ? "+platt" : ""),
                            std::move(clf)});
      }
    }

    identified_ = new std::vector<JobSummary>();
    for (const auto& job : gen.generate_native(600)) {
      identified_->push_back(job.summary);
    }
    unidentified_ = new std::vector<JobSummary>();
    for (const auto& job : gen.generate_na(300, 0.5)) {
      unidentified_->push_back(job.summary);
    }
    for (const auto& job : gen.generate_uncategorized(300)) {
      unidentified_->push_back(job.summary);
    }
  }

  static void TearDownTestSuite() {
    delete models_;
    delete identified_;
    delete unidentified_;
    models_ = nullptr;
    identified_ = nullptr;
    unidentified_ = nullptr;
  }

  void SetUp() override { fp::reset(); }
  void TearDown() override { fp::reset(); }

  enum class Mix { kIdentified, kUnidentified, kMixed };

  /// n jobs: all identified, all unidentified, or alternating.
  static std::vector<JobSummary> jobs_of(std::size_t n, Mix mix) {
    std::vector<JobSummary> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      const bool ident =
          mix == Mix::kIdentified || (mix == Mix::kMixed && i % 2 == 0);
      jobs.push_back(ident ? (*identified_)[i] : (*unidentified_)[i]);
    }
    return jobs;
  }

  static const ServedModel& rbf_platt() { return models_->front(); }

  static std::vector<ServedModel>* models_;
  static std::vector<JobSummary>* identified_;
  static std::vector<JobSummary>* unidentified_;
};
std::vector<ServedModel>* SvmServiceTest::models_ = nullptr;
std::vector<JobSummary>* SvmServiceTest::identified_ = nullptr;
std::vector<JobSummary>* SvmServiceTest::unidentified_ = nullptr;

void expect_same(const ClassificationService::IngestResult& got,
                 const ClassificationService::IngestResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.outcome, want.outcome) << where;
  EXPECT_EQ(got.prediction.label, want.prediction.label) << where;
  EXPECT_EQ(got.prediction.class_name, want.prediction.class_name) << where;
  // Bit-identical, not approximately equal.
  EXPECT_EQ(got.prediction.probability, want.prediction.probability) << where;
  EXPECT_EQ(got.error, want.error) << where;
}

TEST_F(SvmServiceTest, IngestBatchEqualsIngestLoop) {
  for (const auto& model : *models_) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 513u}) {
      for (const Mix mix : {Mix::kIdentified, Mix::kUnidentified, Mix::kMixed}) {
        const std::string where = model.name + " n=" + std::to_string(n) +
                                  " mix=" +
                                  std::to_string(static_cast<int>(mix));
        const auto jobs = jobs_of(n, mix);
        ClassificationService serial(model.classifier, 0.5);
        std::vector<ClassificationService::IngestResult> want;
        for (const auto& job : jobs) want.push_back(serial.ingest(job));
        ClassificationService batched(model.classifier, 0.5);
        const auto got = batched.ingest_batch(jobs);
        ASSERT_EQ(got.size(), want.size()) << where;
        for (std::size_t i = 0; i < n; ++i) {
          expect_same(got[i], want[i], where + " job " + std::to_string(i));
        }
        EXPECT_EQ(batched.stats().identified, serial.stats().identified);
        EXPECT_EQ(batched.stats().attributed, serial.stats().attributed);
        EXPECT_EQ(batched.stats().unresolved, serial.stats().unresolved);
        EXPECT_EQ(batched.stats().failed, 0u) << where;
        EXPECT_EQ(batched.warehouse()->size(), n) << where;
        EXPECT_EQ(batched.attributed_cpu_hours(),
                  serial.attributed_cpu_hours());
      }
    }
  }
}

TEST_F(SvmServiceTest, ResultIndependentOfBatchAndPosition) {
  const auto& model = rbf_platt();
  const JobSummary probe = unidentified_->back();
  ClassificationService alone(model.classifier, 0.5);
  const auto want = alone.ingest(probe);
  const std::pair<std::size_t, std::size_t> placements[] = {
      {2, 0}, {9, 8}, {16, 7}, {64, 0}, {64, 37}, {513, 512}};
  for (const auto& [n, pos] : placements) {
    auto jobs = jobs_of(n, Mix::kMixed);
    jobs[pos] = probe;
    ClassificationService service(model.classifier, 0.5);
    const auto got = service.ingest_batch(std::move(jobs));
    expect_same(got[pos], want,
                "batch of " + std::to_string(n) + " at " + std::to_string(pos));
  }
}

// The job CSV grammar accepts nan and inf.  Fed to the SVM, such a job
// gets label 0 at p = 0.05 (the coupling's uniform fallback once every
// pairwise probability is NaN), a silent misprediction; the service
// must fail it alone and name the attribute.
const double kNonFinite[] = {std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};

TEST_F(SvmServiceTest, NonFiniteFeatureFailsTheJobAlone) {
  const auto& model = rbf_platt();
  for (const double bad : kNonFinite) {
    SCOPED_TRACE("CPU_USER = " + std::to_string(bad));
    JobSummary job = unidentified_->front();
    job.set_mean(supremm::MetricId::kCpuUser, bad);
    // Through the CSV interchange format, as a warehouse export arrives.
    std::ostringstream csv;
    supremm::write_jobs_csv(csv, std::vector<JobSummary>{job});
    std::istringstream in(csv.str());
    const auto read = supremm::read_jobs_csv(in);
    ASSERT_EQ(read.size(), 1u);
    ASSERT_FALSE(std::isfinite(read[0].mean_of(supremm::MetricId::kCpuUser)));

    EXPECT_THROW(model.classifier->predict(read[0]), InvalidArgument);
    EXPECT_THROW(model.classifier->predict_features(
                     read[0].extract(model.classifier->schema())),
                 InvalidArgument);

    ClassificationService service(model.classifier, 0.5);
    const auto result = service.ingest(read[0]);
    EXPECT_EQ(result.outcome, Outcome::kFailed);
    EXPECT_NE(result.error.find("CPU_USER"), std::string::npos)
        << result.error;
    EXPECT_EQ(service.stats().failed, 1u);
    EXPECT_EQ(service.warehouse()->size(), 0u);
    EXPECT_EQ(service.warehouse()->dead_letters().size(), 1u);
  }
}

TEST_F(SvmServiceTest, NonFiniteFeatureInsideABatchLeavesTheRestIdentical) {
  const auto& model = rbf_platt();
  const auto jobs = jobs_of(500, Mix::kMixed);
  ClassificationService golden_service(model.classifier, 0.5);
  const auto golden = golden_service.ingest_batch(jobs);
  const std::size_t poisoned = 251;  // odd index: an unidentified job
  ASSERT_NE(jobs[poisoned].label_source, supremm::LabelSource::kIdentified);
  for (const double bad : kNonFinite) {
    SCOPED_TRACE("CPU_USER = " + std::to_string(bad));
    auto batch = jobs;
    batch[poisoned].set_mean(supremm::MetricId::kCpuUser, bad);
    ClassificationService service(model.classifier, 0.5);
    const auto results = service.ingest_batch(std::move(batch));
    ASSERT_EQ(results.size(), jobs.size());
    EXPECT_EQ(results[poisoned].outcome, Outcome::kFailed);
    EXPECT_NE(results[poisoned].error.find("CPU_USER"), std::string::npos);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (i != poisoned) {
        expect_same(results[i], golden[i], "job " + std::to_string(i));
      }
    }
    EXPECT_EQ(service.stats().failed, 1u);
    EXPECT_EQ(service.warehouse()->size(), jobs.size() - 1);
    EXPECT_EQ(service.warehouse()->dead_letters().size(), 1u);
  }
}

// The deadline covers a job's own gate plus the whole batched prediction
// it rode in.  A 100 ms stall injected into the pool chunk that runs the
// prediction therefore fails every classified job of the batch against a
// 20 ms deadline, while identified jobs, checked on their own gate
// alone, pass.  A generous deadline changes nothing.
TEST_F(SvmServiceTest, BatchedClassifyDeadline) {
  const auto& model = rbf_platt();
  const auto jobs = jobs_of(64, Mix::kMixed);
  ClassificationService plain(model.classifier, 0.5);
  const auto want = plain.ingest_batch(jobs);

  ClassificationService::Limits lax;
  lax.classify_timeout_ms = 10'000;
  ClassificationService relaxed(model.classifier, 0.5, lax);
  const auto got = relaxed.ingest_batch(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_same(got[i], want[i], "lax job " + std::to_string(i));
  }

  ClassificationService::Limits tight;
  tight.classify_timeout_ms = 20;
  ClassificationService service(model.classifier, 0.5, tight);
  auto& registry = obs::MetricsRegistry::instance();
  const auto before = registry.snapshot();
  fp::arm("thread_pool.chunk", fp::Policy::parse("delay(100)"));
  const auto results = service.ingest_batch(jobs);
  fp::disarm_all();
  std::size_t classified = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].label_source == supremm::LabelSource::kIdentified) {
      EXPECT_EQ(results[i].outcome, Outcome::kIdentified) << i;
    } else {
      ++classified;
      EXPECT_EQ(results[i].outcome, Outcome::kFailed) << i;
      EXPECT_NE(results[i].error.find("deadline"), std::string::npos) << i;
    }
  }
  EXPECT_EQ(service.stats().failed, classified);
  EXPECT_EQ(service.warehouse()->dead_letters().size(), classified);
  const auto after = registry.snapshot();
  EXPECT_EQ(after.counter("fail.service.timeout") -
                before.counter("fail.service.timeout"),
            classified);
}

// SVM twin of the chaos suite's golden-run check.  Every pool chunk
// throws, so both pool phases of a 200-job batch (the gate fan-out,
// which needs more than 64 jobs, and the batched prediction) fail and
// recover: the gates rerun serially and the pending jobs are predicted
// one at a time, with bit-identical results.
TEST_F(SvmServiceTest, RecoveredFaultsMatchGoldenRunExactly) {
  const auto& model = rbf_platt();
  const auto jobs = jobs_of(200, Mix::kMixed);
  ClassificationService golden(model.classifier, 0.5);
  const auto golden_results = golden.ingest_batch(jobs);

  auto& registry = obs::MetricsRegistry::instance();
  const auto before = registry.snapshot();
  fp::arm_from_spec(
      "thread_pool.submit.queue_full=one_in(3):return;"
      "thread_pool.chunk=error(3);"
      "service.classify=one_in(9):delay(1)",
      /*seed=*/7);
  ClassificationService faulted(model.classifier, 0.5);
  const auto faulted_results = faulted.ingest_batch(jobs);
  fp::disarm_all();
  const auto after = registry.snapshot();

  EXPECT_GE(fp::site_stats("thread_pool.chunk").triggers, 2u);
  EXPECT_EQ(after.counter("retry.service.batch_serial") -
                before.counter("retry.service.batch_serial"),
            2u);
  ASSERT_EQ(faulted_results.size(), golden_results.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expect_same(faulted_results[i], golden_results[i],
                "job " + std::to_string(i));
  }
  EXPECT_EQ(faulted.stats().failed, 0u);
  EXPECT_EQ(faulted.warehouse()->size(), golden.warehouse()->size());
  EXPECT_EQ(faulted.attributed_cpu_hours(), golden.attributed_cpu_hours());
}

// service.classify_ns keeps one record per job (identified jobs their
// gate, classified jobs their gate plus a share of the batched
// prediction), and one batched prediction moves the svm.predict.*
// counters by exactly its rows.
TEST_F(SvmServiceTest, MetricsCountEveryJobAndEveryQuery) {
  const bool prev = obs::enabled();
  obs::set_enabled(true);
  const auto& model = rbf_platt();
  const auto jobs = jobs_of(64, Mix::kMixed);
  auto& registry = obs::MetricsRegistry::instance();
  const auto before = registry.snapshot();
  ClassificationService service(model.classifier, 0.5);
  service.ingest_batch(jobs);
  const auto after = registry.snapshot();
  obs::set_enabled(prev);

  const auto count_of = [](const obs::MetricsSnapshot& snap, const char* n) {
    const auto* h = snap.histogram(n);
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  EXPECT_EQ(count_of(after, "service.classify_ns") -
                count_of(before, "service.classify_ns"),
            jobs.size());
  EXPECT_EQ(after.counter("svm.predict.queries") -
                before.counter("svm.predict.queries"),
            jobs.size() / 2);
  EXPECT_EQ(after.counter("svm.predict.batches") -
                before.counter("svm.predict.batches"),
            1u);
}

// A lone `ingest` is per-job traffic: one classify_ns record and one
// single-query prediction, but no service.ingest_batch_ns sample.
// `ingest_batch` of one job records one.
TEST_F(SvmServiceTest, LoneIngestRecordsNoBatchSpan) {
  const bool prev = obs::enabled();
  obs::set_enabled(true);
  const auto& model = rbf_platt();
  const auto jobs = jobs_of(2, Mix::kUnidentified);
  auto& registry = obs::MetricsRegistry::instance();
  const auto count_of = [](const obs::MetricsSnapshot& snap, const char* n) {
    const auto* h = snap.histogram(n);
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  ClassificationService service(model.classifier, 0.5);
  const auto before = registry.snapshot();
  const auto lone = service.ingest(jobs[0]);
  const auto mid = registry.snapshot();
  service.ingest_batch({jobs[1]});
  const auto after = registry.snapshot();
  obs::set_enabled(prev);

  EXPECT_NE(lone.outcome, Outcome::kFailed);
  EXPECT_EQ(count_of(mid, "service.ingest_batch_ns") -
                count_of(before, "service.ingest_batch_ns"),
            0u);
  EXPECT_EQ(count_of(mid, "service.classify_ns") -
                count_of(before, "service.classify_ns"),
            1u);
  EXPECT_EQ(mid.counter("svm.predict.queries") -
                before.counter("svm.predict.queries"),
            1u);
  EXPECT_EQ(mid.counter("svm.predict.batches") -
                before.counter("svm.predict.batches"),
            0u);
  EXPECT_EQ(count_of(after, "service.ingest_batch_ns") -
                count_of(mid, "service.ingest_batch_ns"),
            1u);
}

}  // namespace
}  // namespace xdmodml::core
