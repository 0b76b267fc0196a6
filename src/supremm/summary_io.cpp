#include "supremm/summary_io.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/number_scan.hpp"

namespace xdmodml::supremm {

namespace {

const char* label_source_name(LabelSource source) {
  switch (source) {
    case LabelSource::kIdentified:
      return "identified";
    case LabelSource::kUncategorized:
      return "uncategorized";
    case LabelSource::kNotAvailable:
      return "na";
  }
  return "?";
}

LabelSource parse_label_source(std::string_view text) {
  if (text == "identified") return LabelSource::kIdentified;
  if (text == "uncategorized") return LabelSource::kUncategorized;
  if (text == "na") return LabelSource::kNotAvailable;
  throw InvalidArgument("unknown label source: " + std::string(text));
}

std::string format_field(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  return os.str();
}

double double_field(std::string_view text) {
  const auto v = scan_double(text);
  XDMODML_CHECK(v.has_value(), "bad numeric field: " + std::string(text));
  return *v;
}

// Integer columns parse into their own type, so a value outside it
// ("-1" nodes, a 2^64-wrapping job id) is rejected instead of cast.
template <class Int>
Int int_field(std::string_view text, const char* column) {
  const auto v = scan_int<Int>(text);
  XDMODML_CHECK(v.has_value(), std::string("bad integer field ") + column +
                                   ": " + std::string(text));
  return *v;
}

JobSummary parse_job(std::span<const std::string_view> row) {
  JobSummary job;
  std::size_t c = 0;
  job.job_id = int_field<std::uint64_t>(row[c++], "job_id");
  job.executable_path = row[c++];
  job.application = row[c++];
  job.category = row[c++];
  job.label_source = parse_label_source(row[c++]);
  job.nodes = int_field<std::uint32_t>(row[c++], "nodes");
  job.cores_per_node = int_field<std::uint32_t>(row[c++], "cores_per_node");
  job.wall_seconds = double_field(row[c++]);
  job.start_epoch_seconds = double_field(row[c++]);
  job.exit_code = int_field<int>(row[c++], "exit_code");
  const auto succeeded = row[c++];
  XDMODML_CHECK(succeeded == "0" || succeeded == "1",
                "bad application_succeeded field: " + std::string(succeeded));
  job.application_succeeded = succeeded == "1";
  for (const auto& info : metric_catalog()) {
    job.set_mean(info.id, double_field(row[c++]));
  }
  for (const auto& info : metric_catalog()) {
    if (info.has_cov) job.set_cov(info.id, double_field(row[c++]));
  }
  return job;
}

}  // namespace

std::vector<std::string> jobs_csv_header() {
  std::vector<std::string> header{
      "job_id",     "executable_path", "application",
      "category",   "label_source",    "nodes",
      "cores_per_node", "wall_seconds", "start_epoch_seconds",
      "exit_code",
      "application_succeeded"};
  for (const auto& info : metric_catalog()) {
    header.push_back(info.name);
  }
  for (const auto& info : metric_catalog()) {
    if (info.has_cov) header.push_back(std::string(info.name) + "_COV");
  }
  return header;
}

void write_jobs_csv(std::ostream& out, std::span<const JobSummary> jobs) {
  CsvWriter writer(out);
  writer.write_row(jobs_csv_header());
  for (const auto& job : jobs) {
    std::vector<std::string> row{
        std::to_string(job.job_id),
        job.executable_path,
        job.application,
        job.category,
        label_source_name(job.label_source),
        std::to_string(job.nodes),
        std::to_string(job.cores_per_node),
        format_field(job.wall_seconds),
        format_field(job.start_epoch_seconds),
        std::to_string(job.exit_code),
        job.application_succeeded ? "1" : "0"};
    for (const auto& info : metric_catalog()) {
      row.push_back(format_field(job.mean_of(info.id)));
    }
    for (const auto& info : metric_catalog()) {
      if (info.has_cov) row.push_back(format_field(job.cov_of(info.id)));
    }
    writer.write_row(row);
  }
}

std::vector<JobSummary> read_jobs_csv(std::istream& in) {
  CsvScanner scanner(in);
  const auto expected = jobs_csv_header();
  XDMODML_CHECK(scanner.next() && std::ranges::equal(scanner.fields(),
                                                     expected),
                "job CSV header does not match the interchange format");
  // The scanner holds every data row to the header's width, so parse_job
  // can index all 59 columns.
  std::vector<JobSummary> jobs;
  while (scanner.next()) {
    const auto row = scanner.fields();
    // Any per-field failure (bad numeric, unknown label source, or the
    // injected `summary_io.read.row` fault) is rethrown with the row
    // position and job id, so a million-row ingest names the one bad
    // record instead of surfacing a bare "bad numeric field".
    try {
      XDMODML_FAILPOINT("summary_io.read.row");
      jobs.push_back(parse_job(row));
    } catch (const Error& e) {
      throw InvalidArgument("job CSV data row " +
                            std::to_string(scanner.row()) + " (line " +
                            std::to_string(scanner.line()) +
                            ", job_id field '" + std::string(row[0]) +
                            "'): " + e.what());
    }
  }
  return jobs;
}

}  // namespace xdmodml::supremm
