// Result printing for the pipeline benchmark.
//
// Human-readable lines name every metric with its unit and sample
// count; the last line of standard output is one JSON object with
// exactly the keys correct, attempted, failed and metrics, each metric
// carrying its value (shortest round-trip digits) and unit.
#pragma once

#include <cstddef>
#include <span>
#include <string>

namespace pipebench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< what the value was computed from
  std::string sample_kind;  ///< e.g. "ops", "windows", "setups"
};

/// Ops attempted, succeeded and failed in one phase of a run.
struct PhaseCount {
  std::string phase;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  std::size_t succeeded() const { return attempted - failed; }
  /// failed / attempted; 0 for an empty phase.
  double failed_share() const;
};

/// "metric <name> = <value> <unit> (n=<samples> <kind>)".
std::string metric_line(const Metric& metric);

/// "phase <name>: attempted=.. succeeded=.. failed=.. failed_share=..".
std::string phase_line(const PhaseCount& count);

/// Shortest decimal text that reads back as exactly `value`.  Throws
/// std::invalid_argument for NaN or infinity, which JSON cannot carry.
std::string format_number(double value);

/// The single-line JSON result object.  Metric names and units must be
/// plain identifiers (no quotes or backslashes); throws otherwise.
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, std::span<const Metric> metrics);

}  // namespace pipebench
