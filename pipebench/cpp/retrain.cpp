// The `retrain` workload: fit the Table-2 SVM and the 200-tree forest
// on one balanced training set, then score both on a held-out
// native-mix set.  SMO, the Gram cache and tree building do all their
// work here and none while serving.
#include <optional>
#include <sstream>

#include "inputs.hpp"
#include "layers.hpp"
#include "ml/binned_dataset.hpp"
#include "stats.hpp"
#include "util/csv.hpp"

namespace pipebench {

namespace {

using xm::core::JobClassifier;

constexpr std::size_t kProbeReads = 3;
constexpr std::size_t kProbeQueries = 256;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 14;

/// One op's measurements.
struct RetrainOp {
  double seconds = 0.0;
  double svm_fit_s = 0.0;
  double forest_fit_s = 0.0;
  double evaluate_s = 0.0;
  double svm_accuracy = 0.0;
  double forest_accuracy = 0.0;
};

struct RetrainPhase {
  explicit RetrainPhase(std::string phase_name) : name(std::move(phase_name)) {}

  std::string name;
  WindowRates windows{kWindowSeconds};
  std::vector<RetrainOp> ops;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  std::vector<double> column(double RetrainOp::*field) const {
    std::vector<double> out;
    for (const auto& op : ops) out.push_back(op.*field);
    return out;
  }
};

class Retrain {
 public:
  explicit Retrain(const RunConfig& config) {
    auto gen = xm::workload::WorkloadGenerator::standard({}, config.seed);
    train_csv_ = to_csv(generate_training(gen, kPerClass));
    heldout_csv_ = to_csv(generate_heldout(gen, kHeldout));
  }

  const std::string& train_csv() const { return train_csv_; }
  const std::string& heldout_csv() const { return heldout_csv_; }

  /// Wall time of every setup so far.
  const std::vector<double>& setup_s() const { return setup_s_; }

  std::size_t train_jobs() const { return train_->size(); }
  std::size_t heldout_jobs() const { return heldout_->size(); }

  /// Runs retrain ops until `seconds` have passed (at least one op), each
  /// after a setup of its own, timed apart from the op.  Setups spread
  /// over the run this way sample the host as long as the ops do.
  /// `keep_svm`, when given, receives the last op's fitted SVM.
  void run(RetrainPhase& phase, double seconds, SpanRecorder* rec,
           std::optional<JobClassifier>* keep_svm = nullptr) {
    const auto deadline =
        now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    do {
      set_up();
      ++phase.attempted;
      try {
        const auto op = retrain_op(rec, keep_svm);
        phase.windows.add({op.seconds, static_cast<double>(train_jobs())});
        phase.ops.push_back(op);
      } catch (const CheckFailure&) {
        throw;
      } catch (const std::exception&) {
        ++phase.failed;
      }
    } while (now_ns() < deadline);
  }

 private:
  /// Setup: read both exports and assemble the datasets.  Every op fits
  /// on the first setup's datasets, so the heap the fits allocate from
  /// looks the same in every op; later setups only time the work.
  void set_up() {
    const auto t0 = now_ns();
    auto train = table2_dataset(from_csv(train_csv_));
    auto heldout = table2_dataset(from_csv(heldout_csv_));
    setup_s_.push_back(seconds_between(t0, now_ns()));
    if (!train_) {
      train_.emplace(std::move(train));
      heldout_.emplace(std::move(heldout));
    }
  }

  RetrainOp retrain_op(SpanRecorder* rec,
                       std::optional<JobClassifier>* keep_svm) {
    RetrainOp out;
    JobClassifier svm(svm_config());
    JobClassifier forest(forest_config());
    if (rec != nullptr) rec->next_op();
    const auto t0 = now_ns();
    {
      Span op(rec, "op");
      auto t = now_ns();
      {
        Span s(rec, "job_classifier.train.svm");
        svm.train(*train_);
      }
      out.svm_fit_s = seconds_between(t, now_ns());
      t = now_ns();
      {
        Span s(rec, "job_classifier.train.forest");
        forest.train(*train_);
      }
      out.forest_fit_s = seconds_between(t, now_ns());
      t = now_ns();
      {
        Span s(rec, "job_classifier.evaluate.svm");
        out.svm_accuracy = svm.evaluate(*heldout_).accuracy;
      }
      {
        Span s(rec, "job_classifier.evaluate.forest");
        out.forest_accuracy = forest.evaluate(*heldout_).accuracy;
      }
      out.evaluate_s = seconds_between(t, now_ns());
    }
    out.seconds = seconds_between(t0, now_ns());

    check(out.svm_accuracy >= kSvmAccuracyFloor,
          "SVM held-out accuracy " + format_number(out.svm_accuracy) +
              " is below the floor " + format_number(kSvmAccuracyFloor));
    check(out.forest_accuracy >= kForestAccuracyFloor,
          "forest held-out accuracy " + format_number(out.forest_accuracy) +
              " is below the floor " + format_number(kForestAccuracyFloor));
    if (first_) {
      check(out.svm_accuracy == first_->svm_accuracy &&
                out.forest_accuracy == first_->forest_accuracy,
            "refitting on the same data changed a held-out accuracy");
    } else {
      first_ = out;
    }
    if (keep_svm != nullptr) *keep_svm = std::move(svm);
    return out;
  }

  std::string train_csv_;
  std::string heldout_csv_;
  std::optional<xm::ml::Dataset> train_;
  std::optional<xm::ml::Dataset> heldout_;
  std::optional<RetrainOp> first_;
  std::vector<double> setup_s_;
};

PhaseCount phase_count(const RetrainPhase& phase) {
  return {phase.name + " (retrains)", phase.attempted, phase.failed};
}

}  // namespace

RunResult run_retrain(const RunConfig& config) {
  Retrain retrain(config);
  restart_peak_rss();

  RunResult result;
  RetrainPhase warmup{"warmup"};
  retrain.run(warmup, 0.0, nullptr);
  result.phases.push_back(phase_count(warmup));

  if (!config.trace) {
    RetrainPhase timed{"timed"};
    retrain.run(timed, config.seconds, nullptr);
    result.phases.push_back(phase_count(timed));
    result.attempted = timed.attempted;
    result.failed = timed.failed;
    check(!timed.ops.empty(), "every retrain op failed");
    const auto rates = timed.windows.finish();
    const auto& setup_s = retrain.setup_s();
    const auto& op = timed.ops.front();
    const std::size_t n = timed.ops.size();
    result.metrics.push_back(
        {"jobs_per_s", "jobs/s", median(rates), rates.size(), "windows"});
    result.metrics.push_back({"latency_ms_p50", "ms",
                              median(timed.column(&RetrainOp::seconds)) * 1e3,
                              n, "retrains"});
    result.metrics.push_back({"svm_accuracy", "fraction", op.svm_accuracy,
                              retrain.heldout_jobs(), "held-out jobs"});
    result.metrics.push_back(
        {"setup_s", "s", median(setup_s), setup_s.size(), "setups"});
    result.metrics.push_back(
        {"peak_rss_mib", "MiB", peak_rss_mib(), 1, "runs"});
    result.notes.push_back(spread_note("jobs_per_s windows", rates));
    result.notes.push_back(
        "svm_fit_s = " +
        format_number(median(timed.column(&RetrainOp::svm_fit_s))) +
        " s (n=" + std::to_string(n) + " fits)");
    result.notes.push_back(spread_note("setup_s setups", setup_s));
    result.notes.push_back(
        "forest_fit_s = " +
        format_number(median(timed.column(&RetrainOp::forest_fit_s))) +
        " s (n=" + std::to_string(n) + " fits)");
    result.notes.push_back("forest_accuracy = " +
                           format_number(op.forest_accuracy) + " fraction (n=" +
                           std::to_string(retrain.heldout_jobs()) +
                           " held-out jobs)");
    result.notes.push_back(
        "evaluate_s = " +
        format_number(median(timed.column(&RetrainOp::evaluate_s))) +
        " s for both models (n=" + std::to_string(n) + " retrains)");
    result.notes.push_back("retrain = fit both models on " +
                           std::to_string(retrain.train_jobs()) +
                           " jobs and score both on " +
                           std::to_string(retrain.heldout_jobs()) +
                           "; jobs_per_s counts training jobs refit");
    return result;
  }

  SpanRecorder rec(kSpanCapacity);
  RetrainPhase untraced{"untraced"};
  RetrainPhase traced{"traced"};
  std::optional<JobClassifier> svm;
  run_trace_blocks(config.seconds, rec, [&](double s, SpanRecorder* r) {
    if (r == nullptr) return retrain.run(untraced, s, nullptr);
    retrain.run(traced, s, r, &svm);
  });
  const RegistryReading reading;
  result.phases.push_back(phase_count(untraced));
  result.phases.push_back(phase_count(traced));
  result.attempted = untraced.attempted + traced.attempted;
  result.failed = untraced.failed + traced.failed;
  check(!untraced.ops.empty() && !traced.ops.empty() && svm,
        "every retrain op failed");

  LayerMetrics layers;
  const std::size_t n = traced.ops.size();
  set_registry_layers(layers, reading,
                      untraced.ops.size() + traced.ops.size(), 0);
  const auto put = [&](const char* metric, const char* span, double unit_ns,
                       std::size_t samples, const char* kind) {
    if (const auto v = median_self(rec, span, unit_ns)) {
      layers.set(metric, *v, samples, kind);
    }
  };
  put("svm.fit_s", "job_classifier.train.svm", 1e9, n, "fits");
  put("random_forest.fit_s", "job_classifier.train.forest", 1e9, n, "fits");
  const auto eval_svm = median_self(rec, "job_classifier.evaluate.svm", 1e6);
  const auto eval_forest =
      median_self(rec, "job_classifier.evaluate.forest", 1e6);
  layers.set("job_classifier.evaluate_ms", *eval_svm + *eval_forest, n,
             "retrains");
  set_trace_layers(layers, result, rec, untraced.column(&RetrainOp::seconds),
                   traced.column(&RetrainOp::seconds));

  // Probes: reading and tokenizing the training export, binning the
  // standardized training matrix, and the SVM stages of held-out
  // queries on the last refit model.
  for (std::size_t i = 0; i < kProbeReads; ++i) {
    rec.next_op();
    Span root(&rec, "probe.read");
    {
      Span s(&rec, "summary_io.read_jobs_csv");
      from_csv(retrain.train_csv());
    }
    Span s(&rec, "csv.parse_csv");
    std::istringstream in(retrain.train_csv());
    xm::parse_csv(in);
  }
  const double jobs = static_cast<double>(retrain.train_jobs());
  put("summary_io.read_us_per_job", "summary_io.read_jobs_csv", 1e3 * jobs,
      kProbeReads, "reads");
  put("csv.parse_us_per_job", "csv.parse_csv", 1e3 * jobs, kProbeReads,
      "parses");

  xm::ml::Standardizer standardizer;
  const auto train = table2_dataset(from_csv(retrain.train_csv()));
  const auto standardized = standardizer.fit_transform(train.X);
  for (std::size_t i = 0; i < kProbeReads; ++i) {
    rec.next_op();
    Span root(&rec, "probe.bin");
    Span s(&rec, "binned_dataset.build");
    const xm::ml::BinnedDataset binned(standardized);
  }
  put("binned_dataset.build_ms", "binned_dataset.build", 1e6, kProbeReads,
      "builds");

  std::ostringstream bytes;
  svm->save(bytes);
  const BareSvmModel bare = parse_svm_model(std::move(bytes).str());
  auto queries = from_csv(retrain.heldout_csv());
  queries.resize(std::min(kProbeQueries, queries.size()));
  probe_queries(rec, bare, *svm, queries);
  set_query_layers(layers, rec, bare);
  write_spans(rec, config);
  for (const auto& name : layers.absent()) {
    result.notes.push_back("registry name not registered in this process: " + name);
  }
  result.metrics = layers.metrics();
  return result;
}

}  // namespace pipebench
