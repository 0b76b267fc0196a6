// Order statistics for the pipeline benchmark.
//
// Every timing the benchmark reports is a median over per-op samples,
// never a mean, so one op stalled by a co-tenant moves a result by at
// most one rank.  Quartiles describe the spread behind a median.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pipebench {

/// Median (mean of the two middle values for an even count).  Requires a
/// non-empty sample.
double median(std::span<const double> samples);

/// 1-based nearest rank of quantile q in a sample of n: ceil(q * n),
/// clamped to [1, n].  q = 0.99, n = 1000 gives rank 990.
std::size_t nearest_rank(std::size_t n, double q);

/// Nearest-rank q-quantile.  Requires a non-empty sample.
double quantile(std::span<const double> samples, double q);

/// One timed op: its wall time and the jobs it carried.
struct OpSample {
  double seconds = 0.0;
  double jobs = 0.0;
};

/// Throughput over consecutive windows of ops: ops are grouped in order
/// until their summed wall time reaches `min_window_s`, and each window
/// yields jobs / wall seconds.  A trailing window shorter than half of
/// `min_window_s` is folded into the previous one.  The median of these
/// rates is the benchmark's jobs_per_s.  Memory is one entry per window,
/// so a faster program does not grow the run's resident set.
class WindowRates {
 public:
  explicit WindowRates(double min_window_s) : min_window_s_(min_window_s) {}

  void add(const OpSample& op);
  /// The window rates, with the trailing partial window folded in.
  std::vector<double> finish() const;

 private:
  double min_window_s_;
  std::vector<double> rates_;
  double seconds_ = 0.0;
  double jobs_ = 0.0;
  double last_seconds_ = 0.0;
  double last_jobs_ = 0.0;
};

}  // namespace pipebench
