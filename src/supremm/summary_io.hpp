// CSV persistence for SUPReMM job summaries.
//
// A production deployment receives job summaries from the collection
// pipeline as flat files; this module defines that interchange format:
// one row per job with the accounting fields followed by every metric
// mean and every COV attribute, by catalogue name.  Reading validates the
// header, so schema drift fails loudly instead of silently mis-mapping
// columns.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "supremm/job_summary.hpp"

namespace xdmodml::supremm {

/// Writes the header plus one row per job.
void write_jobs_csv(std::ostream& out, std::span<const JobSummary> jobs);

/// Reads a document written by `write_jobs_csv`, one streamed record at
/// a time.  Throws InvalidArgument on any header/shape mismatch or
/// unparsable field, naming the data row and its physical line: numbers
/// must match the strict grammar of util/number_scan.hpp, integer
/// columns must fit their type, and `application_succeeded` must be 0
/// or 1.
std::vector<JobSummary> read_jobs_csv(std::istream& in);

/// The column names of the interchange format, in order.
std::vector<std::string> jobs_csv_header();

}  // namespace xdmodml::supremm
