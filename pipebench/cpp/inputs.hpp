// Seeded inputs and the shared run plumbing of the pipeline benchmark.
//
// Everything here runs before any clock starts: the synthetic workload
// generator builds the jobs, and the jobs travel as in-memory CSV text
// (the SUPReMM interchange format) so disk never enters a metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/job_classifier.hpp"
#include "ml/dataset.hpp"
#include "ml/svm.hpp"
#include "report.hpp"
#include "supremm/job_summary.hpp"
#include "workload/generator.hpp"

namespace pipebench {

namespace xm = xdmodml;

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

/// What a run hands back to main for printing.
struct RunResult {
  std::vector<Metric> metrics;        ///< end-to-end or per-layer
  std::vector<std::string> notes;     ///< extra human-readable lines
  std::vector<PhaseCount> phases;
  std::size_t attempted = 0;          ///< ops of the measured phases
  std::size_t failed = 0;
};

/// An output check failed: the run prints no metrics and exits non-zero.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// --- workload sizes (see README.md for why) -----------------------------
inline constexpr std::size_t kPerClass = 250;        ///< 20 x 250 = 5000
inline constexpr std::size_t kHeldout = 3000;        ///< native mix
inline constexpr double kThreshold = 0.8;            ///< the paper's cut
inline constexpr double kSvmAccuracyFloor = 0.85;    ///< EXPERIMENTS.md ~0.90
inline constexpr double kForestAccuracyFloor = 0.90; ///< EXPERIMENTS.md ~0.96
inline constexpr double kWindowSeconds = 0.5;        ///< jobs_per_s window
inline constexpr double kCoverageFloor = 0.95;       ///< traced-run check

/// Balanced training set: `per_class` jobs of every Table-2 application
/// (the experiment benches' generate_table2_train).
std::vector<xm::supremm::JobSummary> generate_training(
    xm::workload::WorkloadGenerator& gen, std::size_t per_class);

/// Native-mix jobs restricted to the Table-2 applications (the
/// experiment benches' generate_table2_test).
std::vector<xm::supremm::JobSummary> generate_heldout(
    xm::workload::WorkloadGenerator& gen, std::size_t count);

/// Serializes jobs in the SUPReMM interchange format.
std::string to_csv(std::span<const xm::supremm::JobSummary> jobs);

/// Parses an in-memory export with `read_jobs_csv`.
std::vector<xm::supremm::JobSummary> from_csv(const std::string& csv);

/// Labelled Table-2 dataset (application labels, fixed class order).
xm::ml::Dataset table2_dataset(std::span<const xm::supremm::JobSummary> jobs);

/// The paper's Table-2 SVM: RBF gamma = 0.1, C = 1000, Platt outputs.
xm::core::JobClassifierConfig svm_config();
/// The 200-tree random forest.
xm::core::JobClassifierConfig forest_config();

/// The pieces of a serialized SVM JobClassifier, loaded as bare
/// objects: the reference the output checks and the traced stage
/// rebuild compare the served model against.
struct BareSvmModel {
  xm::ml::Standardizer standardizer;
  xm::ml::SvmClassifier svm;
};
BareSvmModel parse_svm_model(const std::string& bytes);

/// Label and top-class probability by the per-machine reference path:
/// each machine's Platt probability (`BinarySvm::probability_positive`)
/// coupled by `couple_pairwise_probabilities`.
struct ReferencePrediction {
  int label = -1;
  double probability = 0.0;
  std::vector<double> proba;
};
ReferencePrediction reference_predict(const BareSvmModel& model,
                                      const xm::supremm::JobSummary& job);

/// True when `label`/`probability` match the reference within `tol`; a
/// different label passes only if the reference ranks both labels
/// within `tol` of each other (a tie the two paths may break apart).
bool matches_reference(const ReferencePrediction& ref, int label,
                       double probability, double tol);

/// "<what>: min .. q1 .. median .. q3 .. max (n=..)": the within-run
/// spread behind a median.
std::string spread_note(const std::string& what, std::span<const double> v);

/// Hands freed heap back to the OS and restarts the kernel's peak-RSS
/// count (VmHWM) from the current resident set, which becomes the
/// baseline: the benchmark's own inputs and whatever heap their
/// generation left fragmented.
void restart_peak_rss();

/// Peak resident set since restart_peak_rss above its baseline, in MiB:
/// the memory setup and the measured ops add.  The baseline itself
/// varies by tens of MiB between identical runs (heap the input
/// generation leaves behind), the growth by a few.
double peak_rss_mib();

/// Seconds between two now_ns() readings.
inline double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

RunResult run_backfill(const RunConfig& config);
RunResult run_retrain(const RunConfig& config);

}  // namespace pipebench
