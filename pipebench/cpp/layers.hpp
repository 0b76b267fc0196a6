// Per-layer metrics of the traced run.
//
// Every traced run prints the same per-layer list (README.md has the
// table of which end-to-end metric each one should move).  A layer that
// a workload's ops never call reads 0: that is the measured amount of
// its work, and the prediction for that workload is "no change".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/job_classifier.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "util/metrics.hpp"

namespace pipebench {

/// The per-layer metric list, all zero until set.
class LayerMetrics {
 public:
  LayerMetrics();

  /// Sets a listed metric; throws std::logic_error for an unlisted name.
  void set(const std::string& name, double value, std::size_t samples,
           const std::string& kind);
  /// Marks a metric whose registry name was not registered in this
  /// process (the program no longer exports it, or nothing called the
  /// layer); it reads 0.
  void set_absent(const std::string& name);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& absent() const { return absent_; }

 private:
  Metric& find(const std::string& name);
  std::vector<Metric> metrics_;
  std::vector<std::string> absent_;
};

/// Reads the program's own registry (obs::MetricsRegistry) after a
/// traced phase that started from a reset.  A name the program does not
/// register reads as absent, never as a failure.
class RegistryReading {
 public:
  RegistryReading();

  std::optional<std::uint64_t> counter(const std::string& name) const;
  std::optional<std::int64_t> gauge(const std::string& name) const;
  /// Median of a log2-bucketed histogram over its records above the
  /// `skip` lowest ones, interpolated linearly inside the bucket that
  /// holds it, divided by `scale` (1000 for ns -> us).
  std::optional<double> histogram_median(const std::string& name,
                                         std::uint64_t skip,
                                         double scale) const;
  std::optional<std::uint64_t> histogram_count(const std::string& name) const;

 private:
  xdmodml::obs::MetricsSnapshot snap_;
};

/// Sets every registry-backed metric (service latencies, pool, SMO,
/// Gram cache, trees) from a reading taken after run_trace_blocks.
/// Counters tick whether or not the registry is on, so counts are per
/// op over `all_ops`, the untraced and traced ops together; histograms
/// record only while it is on, so they describe the traced ops alone.
/// The classify median skips `identified` records: identified jobs
/// bypass the classifier and are the fastest ones.  Layers the ops
/// never reached read 0.
void set_registry_layers(LayerMetrics& out, const RegistryReading& reading,
                         std::size_t all_ops, std::uint64_t identified);

/// The traced run measures 2/3 of --seconds in kTraceBlocks pairs of
/// blocks: untraced, then traced with spans and the program's registry
/// on.  Alternating puts drift over the run (clock speed, cache warm-up)
/// on both sides of trace.overhead.  `run(seconds, recorder)` runs the
/// workload's ops for `seconds`, with recorder == nullptr untraced.
inline constexpr std::size_t kTraceBlocks = 3;

template <typename Run>
void run_trace_blocks(double seconds, SpanRecorder& rec, Run&& run) {
  const double block = seconds / (3.0 * kTraceBlocks);
  xdmodml::obs::MetricsRegistry::instance().reset();
  for (std::size_t i = 0; i < kTraceBlocks; ++i) {
    run(block, nullptr);
    xdmodml::obs::set_enabled(true);
    run(block, &rec);
    xdmodml::obs::set_enabled(false);
  }
}

/// Median self time, in `unit_ns` units, of every span named `name`;
/// nullopt when no such span was recorded.
std::optional<double> median_self(const SpanRecorder& rec, const char* name,
                                  double unit_ns);

/// Coverage of the op roots named `root`: the median per-op share and
/// the share summed over all ops.
struct Coverage {
  double median = 0.0;
  double total = 0.0;
  double min = 0.0;
  std::size_t ops = 0;
};
Coverage op_coverage(const SpanRecorder& rec, const char* root);

/// Rebuilds each job's served query from public calls on the bare model
/// — extract, standardize, plan kernel row, per-machine decision value
/// and Platt probability, pairwise coupling — under one span per stage,
/// and times `JobClassifier::predict` on the served classifier for the
/// same job.  Checks that the rebuilt label and probability equal the
/// served ones exactly; returns the rebuilt (label, probability) pairs.
struct QueryResult {
  int label = -1;
  double probability = 0.0;
};
std::vector<QueryResult> probe_queries(
    SpanRecorder& rec, const BareSvmModel& bare,
    const xdmodml::core::JobClassifier& served,
    std::span<const xdmodml::supremm::JobSummary> jobs);

/// Sets the SVM-stage and plan metrics from probe_queries' spans plus a
/// timed plan build on fresh copies of the bare model.
void set_query_layers(LayerMetrics& out, const SpanRecorder& rec,
                      const BareSvmModel& bare);

/// Median microseconds of `Warehouse::ingest` per row over `jobs`,
/// ingested one by one into a bare warehouse.
double probe_warehouse_ingest_us(
    std::span<const xdmodml::supremm::JobSummary> jobs);

/// Sets trace.coverage (checked against kCoverageFloor) and
/// trace.overhead, and adds a note line describing both.
void set_trace_layers(LayerMetrics& out, RunResult& result,
                      const SpanRecorder& rec,
                      std::span<const double> untraced_op_s,
                      std::span<const double> traced_op_s);

/// Writes the spans to config.spans_path (a traced-run check).
void write_spans(const SpanRecorder& rec, const RunConfig& config);

}  // namespace pipebench
