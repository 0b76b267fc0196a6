#include "core/classification_service.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace xdmodml::core {

namespace {

/// Jobs per pool task in the gate phase (about 0.5 µs each, against a
/// task hand-off of several µs); a batch of at most one grain, and so
/// every `ingest`, gates inline.
constexpr std::size_t kGateGrain = 64;

/// Serving-path metrics, registered once per process.
struct ServiceMetrics {
  obs::Counter& identified =
      obs::MetricsRegistry::instance().counter("service.identified");
  obs::Counter& attributed =
      obs::MetricsRegistry::instance().counter("service.attributed");
  obs::Counter& unresolved =
      obs::MetricsRegistry::instance().counter("service.unresolved");
  obs::Histogram& classify_ns =
      obs::MetricsRegistry::instance().histogram("service.classify_ns", "ns");
  obs::Histogram& commit_ns =
      obs::MetricsRegistry::instance().histogram("service.commit_ns", "ns");
  obs::Histogram& batch_ns = obs::MetricsRegistry::instance().histogram(
      "service.ingest_batch_ns", "ns");
  obs::Counter& failed =
      obs::MetricsRegistry::instance().counter("service.failed");
  obs::Counter& classify_failures =
      obs::MetricsRegistry::instance().counter("fail.service.classify");
  obs::Counter& timeouts =
      obs::MetricsRegistry::instance().counter("fail.service.timeout");
  obs::Counter& batch_failures =
      obs::MetricsRegistry::instance().counter("fail.service.batch");
  obs::Counter& batch_serial_retries =
      obs::MetricsRegistry::instance().counter("retry.service.batch_serial");

  static ServiceMetrics& get() {
    static ServiceMetrics m;
    return m;
  }
};

}  // namespace

ClassificationService::ClassificationService(
    std::shared_ptr<const JobClassifier> classifier, double threshold)
    : ClassificationService(std::move(classifier), threshold, Limits{}) {}

ClassificationService::ClassificationService(
    std::shared_ptr<const JobClassifier> classifier, double threshold,
    Limits limits)
    : classifier_(std::move(classifier)), threshold_(threshold),
      limits_(limits) {
  XDMODML_CHECK(classifier_ != nullptr && classifier_->trained(),
                "service requires a trained classifier");
  XDMODML_CHECK(threshold >= 0.0 && threshold <= 1.0,
                "threshold must be in [0, 1]");
}

bool ClassificationService::gate(const supremm::JobSummary& job,
                                 IngestResult& result,
                                 std::span<double> features) const {
  try {
    // `service.classify` is the catch-all request fault: an error policy
    // models a classifier crash, a delay policy a slow model (which the
    // deadline check then turns into a structured timeout).
    XDMODML_FAILPOINT("service.classify");
    if (job.label_source == supremm::LabelSource::kIdentified) {
      result.outcome = Outcome::kIdentified;
      return false;
    }
    const auto raw = job.extract(classifier_->schema());
    std::copy(raw.begin(), raw.end(), features.begin());
    classifier_->standardize_features(features);
    return true;
  } catch (const std::exception& e) {
    fail_classify(result, e);
    return false;
  }
}

void ClassificationService::settle(IngestResult& result,
                                   LabeledPrediction prediction) const {
  result.outcome = prediction.probability >= threshold_
                       ? Outcome::kAttributed
                       : Outcome::kUnresolved;
  result.prediction = std::move(prediction);
}

void ClassificationService::fail_classify(IngestResult& result,
                                          const std::exception& e) const {
  result.outcome = Outcome::kFailed;
  result.error = std::string("classify failed: ") + e.what();
  ServiceMetrics::get().classify_failures.inc();
}

void ClassificationService::predict_pending(
    const std::vector<supremm::JobSummary>& jobs,
    std::span<const std::size_t> pending, const Matrix& features,
    std::vector<IngestResult>& results) const {
  try {
    auto predictions = classifier_->predict_standardized_batch(features);
    for (std::size_t k = 0; k < pending.size(); ++k) {
      settle(results[pending[k]], std::move(predictions[k]));
    }
    return;
  } catch (const std::exception& e) {
    // A lone row was predicted on its own already: it fails alone.
    if (pending.size() == 1) {
      fail_classify(results[pending.front()], e);
      return;
    }
    // A pool fault (`thread_pool.chunk`) or any other batch exception.
    // Prediction is pure and deterministic, so predicting the rows one at
    // a time gives every row that succeeds the bits the batch would have
    // given it, and a row that throws fails alone.
    auto& metrics = ServiceMetrics::get();
    metrics.batch_failures.inc();
    metrics.batch_serial_retries.inc();
  }
  for (const std::size_t i : pending) {
    try {
      settle(results[i], classifier_->predict(jobs[i]));
    } catch (const std::exception& e) {
      fail_classify(results[i], e);
    }
  }
}

void ClassificationService::commit(supremm::JobSummary job,
                                   IngestResult& result) {
  auto& metrics = ServiceMetrics::get();
  obs::ScopedTimer timer(metrics.commit_ns);
  std::lock_guard lock(mutex_);
  if (result.outcome == Outcome::kFailed) {
    ++stats_.failed;
    metrics.failed.inc();
    warehouse_.dead_letter(std::move(job), result.error);
    return;
  }
  if (result.outcome == Outcome::kAttributed) {
    // Store the attribution so warehouse breakdowns include it; the
    // label_source still says where the label came from.
    job.application = result.prediction.class_name;
  }
  // Reject before tallying so a refused row never skews the outcome
  // counters (tallies and warehouse contents move together or not at
  // all).  The attributed CPU hours are read before the move below.
  if (auto reason = xdmod::Warehouse::validate(job)) {
    result.outcome = Outcome::kFailed;
    result.error = "warehouse rejected job: " + *reason;
    ++stats_.failed;
    metrics.failed.inc();
    warehouse_.dead_letter(std::move(job), std::move(*reason));
    return;
  }
  const double cpu_hours =
      job.wall_seconds / 3600.0 * job.nodes * job.cores_per_node;
  try {
    warehouse_.ingest(std::move(job));
  } catch (const InvalidArgument& e) {
    // Unreachable for real data (validated above); an injected
    // `warehouse.validate.reject` with a probabilistic policy can
    // disagree between the two checks.  Scalar fields survive the move,
    // so the dead letter still names the job.
    result.outcome = Outcome::kFailed;
    result.error = e.what();
    ++stats_.failed;
    metrics.failed.inc();
    warehouse_.dead_letter(std::move(job), e.what());
    return;
  }
  switch (result.outcome) {
    case Outcome::kIdentified:
      ++stats_.identified;
      metrics.identified.inc();
      break;
    case Outcome::kAttributed:
      ++stats_.attributed;
      metrics.attributed.inc();
      attributed_cpu_hours_[result.prediction.class_name] += cpu_hours;
      break;
    case Outcome::kUnresolved:
      ++stats_.unresolved;
      metrics.unresolved.inc();
      break;
    case Outcome::kFailed:
      break;  // handled above
  }
}

ClassificationService::IngestResult ClassificationService::ingest(
    supremm::JobSummary job) {
  // No service.ingest_batch_ns sample: per-job traffic lands in the
  // classify/commit histograms, and the batch histogram times batches.
  std::vector<supremm::JobSummary> one;
  one.push_back(std::move(job));
  return std::move(serve(one).front());
}

std::vector<ClassificationService::IngestResult>
ClassificationService::ingest_batch(std::vector<supremm::JobSummary> jobs) {
  obs::ScopedTimer span(ServiceMetrics::get().batch_ns);
  return serve(jobs);
}

std::vector<ClassificationService::IngestResult> ClassificationService::serve(
    std::vector<supremm::JobSummary>& jobs) {
  auto& metrics = ServiceMetrics::get();
  // Clocks run only when a deadline or the metrics toggle reads them,
  // keeping the default hot path clock-free (util/metrics.hpp cost rules).
  const bool clocked = limits_.classify_timeout_ms > 0 || obs::enabled();
  std::vector<IngestResult> results(jobs.size());
  std::vector<std::uint64_t> gate_ns(jobs.size(), 0);

  // Phase 1: gate each job on its own, on the thread pool when the batch
  // spans more than one grain.  A job the classifier must see leaves its
  // standardized features in its row of `rows`.
  Matrix rows(jobs.size(), classifier_->schema().size());
  std::vector<char> needs(jobs.size(), 0);  // bytes: written concurrently
  const auto gate_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint64_t t0 = clocked ? obs::now_ns() : 0;
      needs[i] = gate(jobs[i], results[i], rows.row(i)) ? 1 : 0;
      if (clocked) gate_ns[i] = obs::now_ns() - t0;
    }
  };
  if (jobs.size() <= kGateGrain) {
    gate_range(0, jobs.size());
  } else {
    try {
      ThreadPool::global().parallel_for_ranges(0, jobs.size(), kGateGrain,
                                               gate_range);
    } catch (const fp::FailpointError&) {
      // Pool-infrastructure fault (`thread_pool.chunk`): the gates are
      // independent and touch no service state, so one serial pass over
      // fresh results gives what the parallel pass would have.
      metrics.batch_failures.inc();
      metrics.batch_serial_retries.inc();
      results.assign(jobs.size(), IngestResult{});
      gate_range(0, jobs.size());
    }
  }
  std::vector<std::size_t> pending;  // job index of each feature row
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (needs[i] != 0) pending.push_back(i);
  }

  // Phase 2: one batched prediction over those rows.
  std::uint64_t predict_ns = 0;
  if (!pending.empty()) {
    const std::uint64_t t0 = clocked ? obs::now_ns() : 0;
    predict_pending(jobs, pending, rows.gather_rows(pending), results);
    if (clocked) predict_ns = obs::now_ns() - t0;
  }

  // Phase 3: per-job cost and deadline, then the state updates in job
  // order, so the warehouse and tallies match a serial ingest loop.  A
  // classified job is charged its gate plus an equal share of the
  // batched prediction in the histogram, and its gate plus the whole
  // prediction against the deadline: it waited for all of it.
  std::size_t next_pending = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const bool predicted = next_pending < pending.size() &&
                           pending[next_pending] == i;
    if (predicted) ++next_pending;
    if (clocked) {
      if (obs::enabled()) {
        metrics.classify_ns.record(
            gate_ns[i] + (predicted ? predict_ns / pending.size() : 0));
      }
      const std::uint64_t elapsed_ms =
          (gate_ns[i] + (predicted ? predict_ns : 0)) / 1'000'000;
      if (limits_.classify_timeout_ms > 0 &&
          results[i].outcome != Outcome::kFailed &&
          elapsed_ms > limits_.classify_timeout_ms) {
        // Cooperative deadline: the work already ran, but an overrun
        // request is reported as a failure instead of a silently slow
        // success, so callers can shed load deterministically.
        results[i].outcome = Outcome::kFailed;
        results[i].error = "classify deadline exceeded (" +
                           std::to_string(elapsed_ms) + " ms > " +
                           std::to_string(limits_.classify_timeout_ms) +
                           " ms)";
        metrics.timeouts.inc();
      }
    }
    commit(std::move(jobs[i]), results[i]);
  }
  return results;
}

ClassificationService::Stats ClassificationService::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::map<std::string, double> ClassificationService::attributed_cpu_hours()
    const {
  std::lock_guard lock(mutex_);
  return attributed_cpu_hours_;
}

std::string ClassificationService::report() const {
  std::lock_guard lock(mutex_);
  std::ostringstream os;
  os << "classification service: " << stats_.total() << " jobs ingested ("
     << stats_.identified << " identified, " << stats_.attributed
     << " attributed at p >= " << threshold_ << ", " << stats_.unresolved
     << " unresolved, " << stats_.failed << " failed)\n";
  os << "model: " << classifier_->model_info() << "\n";
  if (!warehouse_.dead_letters().empty()) {
    // Surfacing the dead letters is what keeps "recovered" honest: every
    // job the serving path refused is accounted for here, not dropped.
    TextTable table({"dead-lettered job", "reason"});
    for (const auto& dl : warehouse_.dead_letters()) {
      table.add_row({std::to_string(dl.job.job_id), dl.reason});
    }
    os << table.render();
  }
  if (!attributed_cpu_hours_.empty()) {
    TextTable table({"attributed application", "CPU hours"});
    for (const auto& [app, hours] : attributed_cpu_hours_) {
      table.add_row({app, format_double(hours, 1)});
    }
    os << table.render();
  }
  if (obs::enabled()) {
    // The registry snapshot (cache hit rates, SMO iterations, latency
    // histograms) rides along so one report() answers both "what did
    // the service decide" and "how is the machinery behaving".
    os << "\n-- metrics snapshot --\n"
       << obs::MetricsRegistry::instance().to_text();
  }
  return os.str();
}

}  // namespace xdmodml::core
