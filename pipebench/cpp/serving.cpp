// The serving workload `backfill`: hourly CSV exports through
// read_jobs_csv, Lariat and ingest_batch, then a center report.  It
// serves the Table-2 SVM, trained and serialized in every run before the
// setup clock starts.
#include <memory>
#include <optional>
#include <sstream>

#include "core/classification_service.hpp"
#include "inputs.hpp"
#include "lariat/lariat.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "workload/dataset_helpers.hpp"
#include "xdmod/warehouse.hpp"

namespace pipebench {

namespace {

using xm::core::ClassificationService;
using xm::core::JobClassifier;
using xm::supremm::JobSummary;
using Outcome = ClassificationService::Outcome;

constexpr std::size_t kExports = 8;
constexpr std::size_t kExportNative = 500;
constexpr std::size_t kExportUncategorized = 250;
constexpr std::size_t kExportNa = 250;
/// Setups of an untraced run, one before the warm-up and one before each
/// later slice of the timed phase.
constexpr std::size_t kSetupRounds = 12;
/// Setups of a traced run, back to back before its blocks.
constexpr std::size_t kTracedSetups = 3;
/// Backfill checks about 1 in 32 unidentified jobs (~128 of 4000).
constexpr std::uint64_t kReferenceOneIn = 32;
constexpr std::size_t kProbeQueries = 256;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;
constexpr double kReferenceTolerance = 1e-10;
constexpr double kWarmupSeconds = 0.2;  ///< untimed ops before measuring

/// The center report: four breakdowns refreshed after every pass.
constexpr std::pair<xm::xdmod::Dimension, xm::xdmod::Statistic> kReport[] = {
    {xm::xdmod::Dimension::kApplication, xm::xdmod::Statistic::kCpuHours},
    {xm::xdmod::Dimension::kCategory, xm::xdmod::Statistic::kCpuHours},
    {xm::xdmod::Dimension::kLabelSource, xm::xdmod::Statistic::kJobCount},
    {xm::xdmod::Dimension::kJobSize, xm::xdmod::Statistic::kNodeHours},
};

std::uint64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
}

/// What one serving run builds before its setup clock starts.
struct ServedModel {
  std::string bytes;            ///< the serialized JobClassifier
  double fit_s = 0.0;           ///< JobClassifier::train wall time
  double accuracy = 0.0;        ///< held-out native-mix accuracy
  std::size_t heldout = 0;
  BareSvmModel bare;            ///< the same bytes, loaded bare
};

ServedModel build_served_model(xm::workload::WorkloadGenerator& gen) {
  ServedModel model;
  const auto train =
      table2_dataset(from_csv(to_csv(generate_training(gen, kPerClass))));
  const auto heldout = table2_dataset(generate_heldout(gen, kHeldout));
  JobClassifier clf(svm_config());
  const auto t0 = now_ns();
  clf.train(train);
  model.fit_s = seconds_between(t0, now_ns());
  model.accuracy = clf.evaluate(heldout).accuracy;
  model.heldout = heldout.size();
  check(model.accuracy >= kSvmAccuracyFloor,
        "served SVM held-out accuracy " + format_number(model.accuracy) +
            " is below the floor " + format_number(kSvmAccuracyFloor));
  std::ostringstream out;
  clf.save(out);
  model.bytes = std::move(out).str();
  model.bare = parse_svm_model(model.bytes);
  return model;
}

/// The loaded, warmed-up served classifier and what each setup cost.
struct Served {
  std::shared_ptr<const JobClassifier> classifier;
  std::vector<double> setup_s;
  std::vector<double> load_s;

  /// One setup: JobClassifier::load of `bytes`, service construction and
  /// a warm-up query (which builds the inference plan).  The new
  /// classifier replaces the old one, released first so that one model
  /// is resident at a time.
  void set_up(const std::string& bytes, const JobSummary& warmup) {
    classifier.reset();
    const auto t0 = now_ns();
    std::istringstream in(bytes);
    auto clf = std::make_shared<const JobClassifier>(JobClassifier::load(in));
    const auto t1 = now_ns();
    ClassificationService service(clf, kThreshold);
    const auto result = service.ingest(warmup);
    const auto t2 = now_ns();
    check(result.outcome != Outcome::kFailed,
          "warm-up query failed: " + result.error);
    load_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_between(t0, t2));
    classifier = std::move(clf);
  }
};

std::vector<JobSummary> shuffled(std::vector<JobSummary> jobs,
                                 std::uint64_t seed) {
  xm::Rng rng(seed);
  rng.shuffle(jobs);
  return jobs;
}

void append(std::vector<JobSummary>& to, std::vector<JobSummary> from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

// --- backfill ----------------------------------------------------------

struct Expected {
  Outcome outcome = Outcome::kUnresolved;
  int label = -1;
  double probability = 0.0;
};

struct BackfillPhase {
  explicit BackfillPhase(std::string phase_name) : name(std::move(phase_name)) {}

  std::string name;
  WindowRates windows{kWindowSeconds};
  std::vector<double> op_s;
  std::vector<double> report_s;
  std::vector<double> rows;
  std::size_t passes = 0;
  std::size_t jobs = 0;
  std::size_t failed = 0;
  std::size_t identified = 0;
};

class Backfill {
 public:
  Backfill(const RunConfig& config, xm::workload::WorkloadGenerator& gen)
      : table_(xm::lariat::ApplicationTable::standard()) {
    for (std::size_t e = 0; e < kExports; ++e) {
      auto jobs = xm::workload::summaries_of(gen.generate_native(kExportNative));
      append(jobs, xm::workload::summaries_of(
                       gen.generate_uncategorized(kExportUncategorized)));
      append(jobs, xm::workload::summaries_of(gen.generate_na(kExportNa)));
      csv_.push_back(to_csv(shuffled(std::move(jobs), config.seed * 131 + e)));
    }
  }

  const std::string& csv(std::size_t e) const { return csv_[e]; }

  /// An unidentified job of the first export (the setup's warm-up query).
  JobSummary warmup_job() const {
    for (auto& job : from_csv(csv_[0])) {
      if (job.label_source != xm::supremm::LabelSource::kIdentified) return job;
    }
    throw CheckFailure("export 0 holds no unidentified job");
  }

  /// Serial ingest of every export into a fresh service, before any
  /// clock: the reference the timed ingest_batch passes must equal.  A
  /// seeded sample of the classified jobs is also checked against the
  /// per-machine reference within kReferenceTolerance; returns how many.
  std::size_t compute_reference(const std::shared_ptr<const JobClassifier>& clf,
                                const BareSvmModel& bare, std::uint64_t seed) {
    xm::Rng rng(seed);
    std::size_t compared = 0;
    for (const auto& text : csv_) {
      ClassificationService service(clf, kThreshold);
      auto& expected = expected_.emplace_back();
      for (auto& job : from_csv(text)) {
        std::optional<ReferencePrediction> ref;
        if (job.label_source != xm::supremm::LabelSource::kIdentified &&
            rng.uniform_index(kReferenceOneIn) == 0) {
          ref = reference_predict(bare, job);
        }
        const auto job_id = job.job_id;
        const auto r = service.ingest(std::move(job));
        if (ref && r.outcome != Outcome::kFailed) {
          check(matches_reference(*ref, r.prediction.label,
                                  r.prediction.probability,
                                  kReferenceTolerance),
                "service prediction for job " + std::to_string(job_id) +
                    " differs from the per-machine reference");
          ++compared;
        }
        expected.push_back({r.outcome, r.prediction.label,
                            r.prediction.probability});
      }
    }
    check(compared > 0, "no job was checked against the per-machine reference");
    return compared;
  }

  /// Runs passes over the exports in turn until `seconds` have passed
  /// (at least one pass).
  void run(BackfillPhase& phase, double seconds,
           const std::shared_ptr<const JobClassifier>& clf,
           SpanRecorder* rec) {
    const auto deadline = deadline_after(seconds);
    do {
      if (rec != nullptr && !rec->has_room(16)) break;
      pass(phase, next_++ % kExports, clf, rec);
    } while (now_ns() < deadline);
  }

 private:
  /// One op: parse the export, identify every job, ingest_batch, then
  /// refresh the center report.  Output checks run after the op clock.
  void pass(BackfillPhase& phase, std::size_t e,
            const std::shared_ptr<const JobClassifier>& clf,
            SpanRecorder* rec) {
    ClassificationService service(clf, kThreshold);
    std::vector<ClassificationService::IngestResult> results;
    std::size_t sent = 0;
    std::size_t mismatched = 0;
    std::size_t reported_jobs = 0;
    std::uint64_t report_start = 0;
    if (rec != nullptr) rec->next_op();
    const auto t0 = now_ns();
    try {
      Span op(rec, "op");
      std::vector<JobSummary> jobs;
      {
        Span s(rec, "summary_io.read_jobs_csv");
        jobs = from_csv(csv_[e]);
      }
      {
        Span s(rec, "lariat.identify");
        for (auto& job : jobs) {
          auto id = table_.identify(job.executable_path);
          mismatched += id.source != job.label_source ||
                        id.application != job.application;
          job.label_source = id.source;
          job.application = std::move(id.application);
          job.category = std::move(id.category);
        }
      }
      sent = jobs.size();
      {
        Span s(rec, "classification_service.ingest_batch");
        results = service.ingest_batch(std::move(jobs));
      }
      report_start = now_ns();
      const auto view = service.warehouse();
      for (const auto& [dimension, statistic] : kReport) {
        Span s(rec, "warehouse.aggregate");
        const auto rows = view->aggregate(dimension, statistic);
        if (dimension == xm::xdmod::Dimension::kLabelSource) {
          for (const auto& row : rows) reported_jobs += row.job_count;
        }
      }
    } catch (const std::exception&) {
      // A thrown op fails every job of its export.
      ++phase.passes;
      phase.jobs += expected_[e].size();
      phase.failed += expected_[e].size();
      return;
    }
    const auto t1 = now_ns();
    const double seconds = seconds_between(t0, t1);
    phase.windows.add({seconds, static_cast<double>(sent)});
    phase.op_s.push_back(seconds);
    phase.report_s.push_back(seconds_between(report_start, t1));
    ++phase.passes;
    phase.jobs += sent;

    const std::string where = " (export " + std::to_string(e) + ")";
    check(mismatched == 0, std::to_string(mismatched) +
                               " jobs whose Lariat identify() disagrees with "
                               "the exported label_source" + where);
    check(sent == expected_[e].size() && results.size() == sent,
          "ingest_batch returned the wrong number of results" + where);
    std::size_t failed = 0;
    for (std::size_t i = 0; i < sent; ++i) {
      const auto& r = results[i];
      const auto& x = expected_[e][i];
      failed += r.outcome == Outcome::kFailed;
      phase.identified += r.outcome == Outcome::kIdentified;
      check(r.outcome == x.outcome && r.prediction.label == x.label &&
                r.prediction.probability == x.probability,
            "ingest_batch differs from the serial ingest reference at job " +
                std::to_string(i) + where);
    }
    phase.failed += failed;
    const auto view = service.warehouse();
    check(view->size() + view->dead_letters().size() == sent,
          "warehouse rows plus dead letters differ from jobs sent" + where);
    check(view->dead_letters().size() == failed,
          "dead letters differ from failed outcomes" + where);
    check(reported_jobs == view->size(),
          "the jobs-by-label-source report misses warehouse rows" + where);
    phase.rows.push_back(static_cast<double>(view->size()));
  }

  xm::lariat::ApplicationTable table_;
  std::vector<std::string> csv_;
  std::vector<std::vector<Expected>> expected_;
  std::size_t next_ = 0;
};

PhaseCount phase_count(const BackfillPhase& phase) {
  return {phase.name + " (jobs, " + std::to_string(phase.passes) + " passes)",
          phase.jobs, phase.failed};
}

/// A seeded sample of the unidentified jobs in the backfill exports.
std::vector<JobSummary> unidentified_sample(const Backfill& backfill,
                                            std::uint64_t seed,
                                            std::size_t count) {
  std::vector<JobSummary> pool;
  for (std::size_t e = 0; e < kExports; ++e) {
    for (auto& job : from_csv(backfill.csv(e))) {
      if (job.label_source != xm::supremm::LabelSource::kIdentified) {
        pool.push_back(std::move(job));
      }
    }
  }
  pool = shuffled(std::move(pool), seed);
  pool.resize(std::min(count, pool.size()));
  return pool;
}

}  // namespace

RunResult run_backfill(const RunConfig& config) {
  auto gen = xm::workload::WorkloadGenerator::standard({}, config.seed);
  const ServedModel model = build_served_model(gen);
  Backfill backfill(config, gen);
  const JobSummary warmup_job = backfill.warmup_job();
  restart_peak_rss();
  Served served;
  served.set_up(model.bytes, warmup_job);
  const std::size_t compared =
      backfill.compute_reference(served.classifier, model.bare,
                                 config.seed * 157 + 5);

  RunResult result;
  BackfillPhase warmup{"warmup"};
  backfill.run(warmup, kWarmupSeconds, served.classifier, nullptr);
  result.phases.push_back(phase_count(warmup));

  if (!config.trace) {
    // The later setups go between equal slices of the timed phase, so
    // their median samples the host over the whole run, not over the few
    // seconds before it.  Each slice serves the classifier set up last.
    BackfillPhase timed{"timed"};
    for (std::size_t i = 0; i < kSetupRounds; ++i) {
      if (i > 0) served.set_up(model.bytes, warmup_job);
      backfill.run(timed, config.seconds / kSetupRounds, served.classifier,
                   nullptr);
    }
    result.phases.push_back(phase_count(timed));
    result.attempted = timed.jobs;
    result.failed = timed.failed;
    const auto rates = timed.windows.finish();
    result.metrics.push_back(
        {"jobs_per_s", "jobs/s", median(rates), rates.size(), "windows"});
    result.metrics.push_back({"latency_ms_p50", "ms",
                              median(timed.op_s) * 1e3, timed.op_s.size(),
                              "passes"});
    result.metrics.push_back({"svm_accuracy", "fraction", model.accuracy,
                              model.heldout, "held-out jobs"});
    result.metrics.push_back({"setup_s", "s", median(served.setup_s),
                              served.setup_s.size(), "setups"});
    result.metrics.push_back(
        {"peak_rss_mib", "MiB", peak_rss_mib(), 1, "runs"});
    result.notes.push_back("svm_fit_s = " + format_number(model.fit_s) +
                           " s (n=1 fit of the served model)");
    result.notes.push_back(spread_note("setup_s setups", served.setup_s));
    result.notes.push_back(spread_note("JobClassifier::load", served.load_s));
    result.notes.push_back("model: " + served.classifier->model_info() + ", " +
                           std::to_string(model.bytes.size()) +
                           " serialized bytes");
    result.notes.push_back(spread_note("jobs_per_s windows", rates));
    result.notes.push_back("report_ms_p50 = " +
                           format_number(median(timed.report_s) * 1e3) +
                           " ms (n=" + std::to_string(timed.report_s.size()) +
                           " passes; four Warehouse::aggregate breakdowns)");
    result.notes.push_back("reference: " + std::to_string(compared) +
                           " sampled jobs match the per-machine reference "
                           "within 1e-10");
    result.notes.push_back(
        "pass = one export of " + std::to_string(kExportNative) +
        " native + " + std::to_string(kExportUncategorized) +
        " Uncategorized + " + std::to_string(kExportNa) + " NA jobs; " +
        std::to_string(timed.passes) + " passes over " +
        std::to_string(kExports) + " distinct exports");
    return result;
  }

  for (std::size_t i = 1; i < kTracedSetups; ++i) {
    served.set_up(model.bytes, warmup_job);
  }
  SpanRecorder rec(kSpanCapacity);
  BackfillPhase untraced{"untraced"};
  BackfillPhase traced{"traced"};
  run_trace_blocks(config.seconds, rec, [&](double s, SpanRecorder* r) {
    backfill.run(r != nullptr ? traced : untraced, s, served.classifier, r);
  });
  const RegistryReading reading;
  result.phases.push_back(phase_count(untraced));
  result.phases.push_back(phase_count(traced));
  result.attempted = untraced.jobs + traced.jobs;
  result.failed = untraced.failed + traced.failed;

  LayerMetrics layers;
  set_registry_layers(layers, reading, untraced.passes + traced.passes,
                      traced.identified);
  const double jobs = static_cast<double>(kExportNative +
                                          kExportUncategorized + kExportNa);
  const auto per_job = [&](const char* metric, const char* span) {
    if (const auto v = median_self(rec, span, 1e3)) {
      layers.set(metric, *v / jobs, traced.passes, "passes");
    }
  };
  per_job("summary_io.read_us_per_job", "summary_io.read_jobs_csv");
  per_job("lariat.identify_us_per_job", "lariat.identify");
  if (const auto v = median_self(rec, "classification_service.ingest_batch", 1e6)) {
    layers.set("classification_service.ingest_batch_ms", *v, traced.passes,
               "passes");
  }
  if (const auto v = median_self(rec, "warehouse.aggregate", 1e6)) {
    layers.set("warehouse.aggregate_ms", *v, traced.passes * std::size(kReport),
               "aggregates");
  }
  layers.set("warehouse.rows", median(traced.rows), traced.rows.size(),
             "passes");
  layers.set("model_io.load_s", median(served.load_s), served.load_s.size(),
             "loads");
  layers.set("model_io.bytes", static_cast<double>(model.bytes.size()), 1,
             "models");
  set_trace_layers(layers, result, rec, untraced.op_s, traced.op_s);

  // Probes, after the traced ops: tokenizing alone on the same bytes,
  // the SVM stages of unidentified export jobs, plan builds and
  // warehouse row ingest.
  for (std::size_t e = 0; e < kExports; ++e) {
    rec.next_op();
    Span root(&rec, "probe.parse");
    Span s(&rec, "csv.parse_csv");
    std::istringstream in(backfill.csv(e));
    check(xm::parse_csv(in).rows.size() == static_cast<std::size_t>(jobs),
          "parse_csv row count differs from the export");
  }
  per_job("csv.parse_us_per_job", "csv.parse_csv");
  const auto probe_jobs =
      unidentified_sample(backfill, config.seed * 149 + 3, kProbeQueries);
  probe_queries(rec, model.bare, *served.classifier, probe_jobs);
  set_query_layers(layers, rec, model.bare);
  layers.set("warehouse.ingest_us",
             probe_warehouse_ingest_us(from_csv(backfill.csv(0))),
             static_cast<std::size_t>(jobs), "rows");
  write_spans(rec, config);
  for (const auto& name : layers.absent()) {
    result.notes.push_back("registry name not registered in this process: " + name);
  }
  result.metrics = layers.metrics();
  return result;
}

}  // namespace pipebench
