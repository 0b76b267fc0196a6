// The production service the paper's §IV announces ("we do plan to
// develop the machine learning technology that was explored in this work
// into production tools for use in XDMoD"): a streaming ingest path that
// stores every job in the warehouse and, for jobs Lariat could not
// identify, attributes an application label when the classifier clears a
// probability threshold.
//
// Concurrency contract: the classifier is shared, trained and immutable,
// so classification itself is lock-free; the mutable service state
// (stats, warehouse, attributed CPU hours) is guarded by an internal
// mutex.  Several threads may therefore call `ingest` / `ingest_batch`
// on the *same* service concurrently and the tallies stay exact.
// Accessors that return snapshots (`stats`, `attributed_cpu_hours`,
// `report`) take the same lock.  `warehouse()` returns an RAII view
// that *holds* that lock, so warehouse reads can never race ingest —
// the old unsynchronized reference escape, guarded only by a comment,
// is gone from the public API.
//
// Batching: `ingest_batch` is the one serving path, and `ingest` is a
// batch of one.  A batch runs in three phases:
//   1. gate, per job, fanned out on the shared thread pool for batches
//      over 64 jobs: the `service.classify` failpoint, the Lariat check
//      (identified jobs skip the classifier), feature extraction and
//      JobClassifier::standardize_features (a NaN or infinite schema
//      feature is a per-job failure naming the attribute, never a
//      silent prediction);
//   2. one prediction for the whole batch: the remaining jobs'
//      standardized rows form one row-major matrix, predicted through
//      JobClassifier::predict_standardized_batch (for the SVM, query
//      tiles against the shared support-vector pool);
//   3. commit, in job order, so the results, tallies and warehouse equal
//      a serial `ingest` loop's bit for bit.
//
// Deadline: `Limits::classify_timeout_ms` covers a job's own gate plus,
// for a classified job, the whole wall time of the batched prediction
// it rode in (identified jobs are checked on their gate alone).
//
// Observability: ingest outcomes, classify/commit latency histograms
// and, for `ingest_batch` only, a batch-ingest span are recorded through
// util/metrics.hpp / util/trace.hpp; `report()` embeds the registry
// snapshot when the XDMODML_METRICS toggle is on.
// `service.classify_ns` keeps one record per job: its gate time, plus an
// equal share of the batched prediction's wall time when it was
// classified.
//
// Fault contract: no exception escapes `ingest` / `ingest_batch` for a
// per-job failure.  A gate failure, a prediction that throws, an
// overrun deadline or a warehouse reject becomes Outcome::kFailed with
// `IngestResult::error` set and that job alone dead-lettered.  A
// thread-pool fault during the gate phase reruns every gate serially.
// When the batched prediction of two or more jobs throws (a thread-pool
// fault or any other error), they are predicted again one at a time:
// prediction is deterministic, so each gets the bits the batch would
// have given it, and a job whose own prediction throws fails alone.  A
// lone pending job is predicted once; if that throws, it fails.  Every
// recovery is counted under fail.* / retry.* in the metrics registry.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/job_classifier.hpp"
#include "xdmod/warehouse.hpp"

namespace xdmodml::core {

/// Streaming classify-and-ingest service.
class ClassificationService {
 public:
  /// Serving limits.  `classify_timeout_ms` is a cooperative deadline:
  /// classification is never preempted, but a request whose classify
  /// step overruns the deadline comes back as Outcome::kFailed (and is
  /// dead-lettered, not stored) instead of being silently slow.  0
  /// disables the check.
  struct Limits {
    std::uint64_t classify_timeout_ms = 0;
  };

  /// Shares a *trained* classifier (several services / threads may use
  /// the same immutable model).  `threshold` is the minimum top-class
  /// probability for attributing unidentified jobs.  (Two overloads
  /// because a nested type with default member initializers cannot be a
  /// `= {}` default argument inside its enclosing class.)
  ClassificationService(std::shared_ptr<const JobClassifier> classifier,
                        double threshold = 0.9);
  ClassificationService(std::shared_ptr<const JobClassifier> classifier,
                        double threshold, Limits limits);

  /// Outcome of ingesting one job.
  enum class Outcome {
    kIdentified,   ///< Lariat already knew the application
    kAttributed,   ///< classifier assigned a label above threshold
    kUnresolved,   ///< unidentified and below threshold
    kFailed,       ///< classify threw / deadline overrun / warehouse
                   ///< reject — job dead-lettered, error says why
  };
  struct IngestResult {
    Outcome outcome = Outcome::kUnresolved;
    LabeledPrediction prediction;  ///< filled for non-identified jobs
    std::string error;             ///< non-empty iff outcome == kFailed
  };

  /// Classifies (when needed) and stores the job: `ingest_batch` of
  /// one.  Attributed jobs are stored with the predicted application so
  /// downstream warehouse queries see it; their Lariat label_source is
  /// preserved.  Safe to call from several threads at once
  /// (classification runs outside the lock; the state update inside it).
  IngestResult ingest(supremm::JobSummary job);

  /// Batched ingest (see the batching contract above): gates each job,
  /// predicts the rest with one batched call whose model fans out on
  /// the shared thread pool, then applies the state updates in job
  /// order.  `results[i]` corresponds to `jobs[i]` and equals what
  /// `ingest(jobs[i])` returns.
  std::vector<IngestResult> ingest_batch(
      std::vector<supremm::JobSummary> jobs);

  /// Read-only warehouse view holding the service mutex for its
  /// lifetime: ingest blocks while a view is alive, so queries see a
  /// consistent warehouse and pointers returned by `query()` stay
  /// valid until the view is released.  Keep views short-lived, and
  /// never call `ingest` / `ingest_batch` / `stats` / `report` from
  /// the holding thread while one is alive (the mutex is not
  /// recursive).
  class WarehouseView {
   public:
    const xdmod::Warehouse& operator*() const { return *warehouse_; }
    const xdmod::Warehouse* operator->() const { return warehouse_; }

   private:
    friend class ClassificationService;
    WarehouseView(std::unique_lock<std::mutex> lock,
                  const xdmod::Warehouse* warehouse)
        : lock_(std::move(lock)), warehouse_(warehouse) {}

    std::unique_lock<std::mutex> lock_;
    const xdmod::Warehouse* warehouse_;
  };

  /// Locked const view; the only warehouse accessor.  The mutable
  /// member stays private — ingest is the one writer.
  WarehouseView warehouse() const {
    return WarehouseView(std::unique_lock(mutex_), &warehouse_);
  }
  const JobClassifier& classifier() const { return *classifier_; }
  double threshold() const { return threshold_; }
  const Limits& limits() const { return limits_; }

  /// Running tallies.
  struct Stats {
    std::size_t identified = 0;
    std::size_t attributed = 0;
    std::size_t unresolved = 0;
    std::size_t failed = 0;  ///< structured-error outcomes (dead-lettered)
    std::size_t total() const {
      return identified + attributed + unresolved + failed;
    }
  };
  /// Consistent snapshot of the tallies.
  Stats stats() const;

  /// CPU hours attributed by the classifier, per application (snapshot).
  std::map<std::string, double> attributed_cpu_hours() const;

  /// Human-readable summary of the service state.
  std::string report() const;

 private:
  /// Phase 1 for one job (no lock held, no state touched; never
  /// throws).  Returns true, with the job's standardized features in
  /// `features`, when the job needs the classifier; otherwise `result`
  /// is final: kIdentified, or kFailed for the injected
  /// `service.classify` fault or a non-finite feature.
  bool gate(const supremm::JobSummary& job, IngestResult& result,
            std::span<double> features) const;

  /// The three phases of a batch over `jobs` (moved from as they are
  /// committed); `ingest` and `ingest_batch` both run it.
  std::vector<IngestResult> serve(std::vector<supremm::JobSummary>& jobs);

  /// Phase 2: predicts the jobs `pending` indexes (row k of `features`
  /// is jobs[pending[k]]) and settles their results.  When more than one
  /// row was pending and the batch throws, predicts them again one at a
  /// time; a lone row that throws fails alone.  Never throws.
  void predict_pending(const std::vector<supremm::JobSummary>& jobs,
                       std::span<const std::size_t> pending,
                       const Matrix& features,
                       std::vector<IngestResult>& results) const;

  /// kAttributed or kUnresolved against the threshold.
  void settle(IngestResult& result, LabeledPrediction prediction) const;
  /// kFailed with "classify failed: <what>", counted.
  void fail_classify(IngestResult& result, const std::exception& e) const;

  /// Applies one classified result under `mutex_` and stores the job.
  /// A warehouse reject downgrades `result` to kFailed and dead-letters
  /// the job instead of letting the exception escape the serving path.
  void commit(supremm::JobSummary job, IngestResult& result);

  std::shared_ptr<const JobClassifier> classifier_;
  double threshold_;
  Limits limits_;
  mutable std::mutex mutex_;  ///< guards everything below
  xdmod::Warehouse warehouse_;
  Stats stats_;
  std::map<std::string, double> attributed_cpu_hours_;
};

}  // namespace xdmodml::core
