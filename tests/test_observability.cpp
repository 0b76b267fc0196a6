// Tests for the observability layer (util/metrics.hpp, util/trace.hpp):
// exact counting under concurrency, log₂ bucket boundaries, exporter
// shapes, the XDMODML_METRICS toggle, and ScopedTimer.
//
// The registry is process-global, so every test uses metric names under
// a test-local prefix and saves/restores the enabled flag it touches.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/classification_service.hpp"
#include "core/job_classifier.hpp"
#include "ml/svm.hpp"
#include "ml/svm_plan.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

namespace xdmodml::obs {
namespace {

/// Restores the global toggle on scope exit so tests cannot leak state.
class EnabledGuard {
 public:
  EnabledGuard() : prev_(enabled()) {}
  ~EnabledGuard() { set_enabled(prev_); }

 private:
  bool prev_;
};

TEST(Observability, CounterConcurrentIncrementsAreExact) {
  auto& counter = MetricsRegistry::instance().counter("test_obs.ctr_hammer");
  counter.reset();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIncsPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::size_t i = 0; i < kIncsPerThread; ++i) counter.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.value(), kThreads * kIncsPerThread);
  counter.inc(42);
  EXPECT_EQ(counter.value(), kThreads * kIncsPerThread + 42);
}

TEST(Observability, GaugeSetAddAndHighWaterMark) {
  auto& gauge = MetricsRegistry::instance().gauge("test_obs.gauge");
  gauge.reset();
  gauge.set(10);
  gauge.add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.update_max(5);  // below current: no change
  EXPECT_EQ(gauge.value(), 7);
  gauge.update_max(19);
  EXPECT_EQ(gauge.value(), 19);
}

TEST(Observability, HistogramBucketBoundariesFollowBitWidth) {
  Histogram h;
  h.record(0);            // bucket 0: exact zeros
  h.record(1);            // bucket 1: [1, 2)
  h.record(2);            // bucket 2: [2, 4)
  h.record(3);            // bucket 2
  h.record(4);            // bucket 3: [4, 8)
  h.record(7);            // bucket 3
  h.record(8);            // bucket 4: [8, 16)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 7 + 8);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0 / 7.0);

  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Histogram::bucket_floor(2), 2u);
  EXPECT_EQ(Histogram::bucket_floor(3), 4u);
  EXPECT_EQ(Histogram::bucket_floor(64), std::uint64_t{1} << 63);

  // The largest sample lands in the last bucket, never out of range.
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Observability, HistogramConcurrentRecordingLosesNoSamples) {
  Histogram h;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        h.record(t + 1);  // thread t records value t+1, always bucketed
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  std::uint64_t bucket_total = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    expected_sum += (t + 1) * kPerThread;
  }
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    bucket_total += h.bucket(i);
  }
  EXPECT_EQ(h.sum(), expected_sum);
  EXPECT_EQ(bucket_total, h.count());
}

TEST(Observability, QuantileReturnsBucketUpperEdge) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);  // empty
  for (int i = 0; i < 100; ++i) h.record(1);  // all of bucket 1
  // Upper-bound estimate: the exclusive top edge of bucket 1 is 2.
  EXPECT_EQ(h.quantile(0.5), 2u);
  EXPECT_EQ(h.quantile(0.99), 2u);
  for (int i = 0; i < 100; ++i) h.record(1000);  // bucket 10: [512, 1024)
  EXPECT_EQ(h.quantile(0.25), 2u);
  EXPECT_EQ(h.quantile(0.99), 1024u);
}

TEST(Observability, RegistryReturnsSameMetricForSameName) {
  auto& registry = MetricsRegistry::instance();
  EXPECT_EQ(&registry.counter("test_obs.same"), &registry.counter("test_obs.same"));
  EXPECT_EQ(&registry.gauge("test_obs.same_g"), &registry.gauge("test_obs.same_g"));
  EXPECT_EQ(&registry.histogram("test_obs.same_h", "ns"),
            &registry.histogram("test_obs.same_h", "ns"));
  EXPECT_EQ(&MetricsRegistry::instance(), &registry);
}

TEST(Observability, SnapshotCarriesValuesAndLookupsWork) {
  auto& registry = MetricsRegistry::instance();
  auto& ctr = registry.counter("test_obs.snap_ctr");
  auto& gauge = registry.gauge("test_obs.snap_gauge");
  auto& hist = registry.histogram("test_obs.snap_hist", "iterations");
  ctr.reset();
  gauge.reset();
  hist.reset();
  ctr.inc(5);
  gauge.set(-17);
  hist.record(3);
  hist.record(300);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("test_obs.snap_ctr"), 5u);
  EXPECT_EQ(snap.gauge("test_obs.snap_gauge"), -17);
  EXPECT_EQ(snap.counter("test_obs.absent"), 0u);
  EXPECT_EQ(snap.gauge("test_obs.absent"), 0);
  EXPECT_EQ(snap.histogram("test_obs.absent"), nullptr);
  const auto* hv = snap.histogram("test_obs.snap_hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->unit, "iterations");
  EXPECT_EQ(hv->count, 2u);
  EXPECT_EQ(hv->sum, 303u);
  // Only non-empty buckets are exported: 3 → floor 2, 300 → floor 256.
  ASSERT_EQ(hv->buckets.size(), 2u);
  EXPECT_EQ(hv->buckets[0].first, 2u);
  EXPECT_EQ(hv->buckets[0].second, 1u);
  EXPECT_EQ(hv->buckets[1].first, 256u);
  EXPECT_EQ(hv->buckets[1].second, 1u);
}

TEST(Observability, TextExportListsMetricsAndDerivedRates) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("test_obs.text_ctr").reset();
  registry.counter("test_obs.text_ctr").inc(7);
  // Feed the derived gram-cache rate: 3 hits / 1 miss = 0.75.
  auto& hits = registry.counter("gram_cache.hits");
  auto& misses = registry.counter("gram_cache.misses");
  const std::uint64_t h0 = hits.value();
  const std::uint64_t m0 = misses.value();
  hits.reset();
  misses.reset();
  hits.inc(3);
  misses.inc(1);

  const std::string text = registry.to_text();
  EXPECT_NE(text.find("counter test_obs.text_ctr 7"), std::string::npos);
  EXPECT_NE(text.find("derived gram_cache.hit_rate 0.75"), std::string::npos);

  hits.reset();
  misses.reset();
  hits.inc(h0);  // restore whatever earlier tests accumulated
  misses.inc(m0);
}

TEST(Observability, JsonExportHasTheDocumentedShape) {
  auto& registry = MetricsRegistry::instance();
  auto& hist = registry.histogram("test_obs.json_hist", "ns");
  hist.reset();
  hist.record(5);
  registry.counter("test_obs.json_ctr").reset();
  registry.counter("test_obs.json_ctr").inc(2);
  registry.gauge("test_obs.json_gauge").set(9);

  const std::string json = registry.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {"), std::string::npos);
  EXPECT_NE(json.find("\"derived\": {"), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.json_ctr\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.json_gauge\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.json_hist\": {\"unit\": \"ns\", "
                      "\"count\": 1, \"sum\": 5"),
            std::string::npos);
  EXPECT_NE(json.find("\"buckets\": [[4, 1]]"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity for the embedded
  // use in bench rows and report().
  int braces = 0;
  int brackets = 0;
  for (const char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Observability, ScopedTimerIsInertWhenDisabled) {
  EnabledGuard guard;
  auto& hist =
      MetricsRegistry::instance().histogram("test_obs.toggle_hist", "ns");
  hist.reset();

  set_enabled(false);
  {
    ScopedTimer timer(hist);
    EXPECT_EQ(timer.stop(), 0u);
  }
  { ScopedTimer timer(hist); }
  EXPECT_EQ(hist.count(), 0u);

  set_enabled(true);
  { ScopedTimer timer(hist); }
  EXPECT_EQ(hist.count(), 1u);
  { ScopedTimer timer(hist); }
  EXPECT_EQ(hist.count(), 2u);

  // stop() records exactly once; the destructor then does nothing.
  ScopedTimer timer(hist);
  (void)timer.stop();
  (void)timer.stop();
  EXPECT_EQ(hist.count(), 3u);
}

TEST(Observability, RegistryResetZeroesEverythingButKeepsReferences) {
  auto& registry = MetricsRegistry::instance();
  auto& ctr = registry.counter("test_obs.reset_ctr");
  auto& hist = registry.histogram("test_obs.reset_hist", "ns");
  ctr.inc(3);
  hist.record(8);
  registry.reset();
  EXPECT_EQ(ctr.value(), 0u);
  EXPECT_EQ(hist.count(), 0u);
  // The same reference keeps working after reset — call sites cache it.
  ctr.inc();
  EXPECT_EQ(ctr.value(), 1u);
  EXPECT_EQ(&registry.counter("test_obs.reset_ctr"), &ctr);
}

// ---- compiled SVM inference plan metrics ----------------------------

ml::SvmClassifier tiny_svm(bool probability = false) {
  Matrix X;
  std::vector<int> y;
  Rng rng(9);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 20; ++i) {
      X.append_row(std::vector<double>{rng.normal(4.0 * c, 0.8),
                                       rng.normal(-2.0 * c, 0.8)});
      y.push_back(c);
    }
  }
  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(0.5);
  cfg.c = 10.0;
  cfg.probability = probability;
  cfg.platt_cv_folds = 2;
  ml::SvmClassifier clf(cfg, 3);
  clf.fit(X, y, 3);
  return clf;
}

TEST(Observability, SvmPlanGaugesPublishedOnBuild) {
  auto& registry = MetricsRegistry::instance();
  const std::uint64_t builds_before =
      registry.counter("svm.plan.builds").value();
  const auto clf = tiny_svm();
  const auto& plan = clf.inference_plan();

  const auto snap = registry.snapshot();
  EXPECT_EQ(registry.counter("svm.plan.builds").value(), builds_before + 1);
  EXPECT_EQ(snap.gauge("svm.plan.unique_svs"),
            static_cast<std::int64_t>(plan.unique_support_vectors()));
  EXPECT_EQ(snap.gauge("svm.plan.total_svs"),
            static_cast<std::int64_t>(plan.total_support_vectors()));
  EXPECT_EQ(snap.gauge("svm.plan.dedup_ratio_x1000"),
            static_cast<std::int64_t>(plan.dedup_ratio() * 1000.0));
  EXPECT_EQ(snap.gauge("svm.plan.pool_bytes"),
            static_cast<std::int64_t>(plan.pool_bytes()));
  EXPECT_EQ(snap.gauge("svm.plan.precision_bits"), 64);
}

TEST(Observability, SvmPredictCountersAccumulate) {
  EnabledGuard toggle;
  auto& registry = MetricsRegistry::instance();
  const auto clf = tiny_svm();
  const auto& plan = clf.inference_plan();
  const auto unique =
      static_cast<std::uint64_t>(plan.unique_support_vectors());

  auto& queries = registry.counter("svm.predict.queries");
  auto& elements = registry.counter("svm.predict.kernel_row_elements");
  auto& batches = registry.counter("svm.predict.batches");
  auto& batch_hist = registry.histogram("svm.predict.batch_ns", "ns");

  const std::vector<double> x{1.0, -1.0};
  const std::uint64_t q0 = queries.value();
  const std::uint64_t e0 = elements.value();
  (void)clf.predict_proba(x);
  EXPECT_EQ(queries.value(), q0 + 1);
  EXPECT_EQ(elements.value(), e0 + unique);

  Matrix probes;
  for (int i = 0; i < 5; ++i) probes.append_row(x);
  const std::uint64_t b0 = batches.value();
  const std::uint64_t h0 = batch_hist.count();
  set_enabled(true);  // batch latency histograms are gated on the toggle
  (void)clf.predict_proba_batch(probes);
  EXPECT_EQ(queries.value(), q0 + 6);
  EXPECT_EQ(elements.value(), e0 + 6 * unique);
  EXPECT_EQ(batches.value(), b0 + 1);
  EXPECT_EQ(batch_hist.count(), h0 + 1);
}

TEST(Observability, ServiceReportSurfacesPlanInfo) {
  auto gen = workload::WorkloadGenerator::standard({}, 77);
  const auto train_jobs = gen.generate_balanced(6);
  const auto schema = supremm::AttributeSchema::full();
  const auto train = workload::build_summary_dataset(
      train_jobs, schema, supremm::label_by_application());
  core::JobClassifierConfig cfg;
  cfg.algorithm = core::Algorithm::kSvm;
  cfg.svm.c = 10.0;
  cfg.svm.probability = false;
  auto clf = std::make_shared<core::JobClassifier>(cfg);
  clf->train(train);

  // The fit builds the plan, so the report's model line carries the
  // pool stats without any prediction happening.
  core::ClassificationService service(clf, 0.5);
  const auto report = service.report();
  EXPECT_NE(report.find("model: svm"), std::string::npos);
  EXPECT_NE(report.find("plan "), std::string::npos);
  EXPECT_NE(report.find("dedup"), std::string::npos);
  EXPECT_NE(clf->model_info().find("machines"), std::string::npos);
}

}  // namespace
}  // namespace xdmodml::obs
