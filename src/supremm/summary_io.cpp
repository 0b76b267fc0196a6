#include "supremm/summary_io.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/number_scan.hpp"
#include "util/thread_pool.hpp"

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

void parse_job(std::span<const std::string_view> row, JobSummary& job) {
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
}

constexpr const char* kBadHeader =
    "job CSV header does not match the interchange format";

/// Data records per pool task in the parse phase (about 4 µs each,
/// against a task hand-off of several µs); a block of at most one grain
/// parses inline.
constexpr std::size_t kParseGrain = 64;

// Any per-record failure (bad numeric, unknown label source, or the
// injected `summary_io.read.row` fault) is rethrown with the row
// position and job id, so a million-row ingest names the one bad record
// instead of surfacing a bare "bad numeric field".
InvalidArgument row_error(std::size_t row, std::size_t line,
                          std::string_view job_id, const char* what) {
  return InvalidArgument("job CSV data row " + std::to_string(row) +
                         " (line " + std::to_string(line) +
                         ", job_id field '" + std::string(job_id) +
                         "'): " + what);
}

// Cuts data row `row` and holds it to the header's width; `fields` then
// views `record` or `storage`.
void split_row(const CsvRecord& record, std::size_t row, std::size_t width,
               std::string& storage, std::vector<std::string_view>& fields) {
  split_record(record.text, storage, fields);
  check_record_width(fields.size(), width, row, record.line);
}

// walk.next(), with a read error or an unterminated quoted field kept
// in `fault`: it is raised once the records before it have parsed.
bool next_record(CsvRecordWalk& walk, CsvRecord& record,
                 std::exception_ptr& fault) {
  try {
    return walk.next(record);
  } catch (const Error&) {
    fault = std::current_exception();
    return false;
  }
}

void note_pool_fault() {
  static auto& failures = obs::MetricsRegistry::instance().counter(
      "fail.summary_io.parse_batch");
  static auto& retries = obs::MetricsRegistry::instance().counter(
      "retry.summary_io.parse_serial");
  failures.inc();
  retries.inc();
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
  const auto expected = jobs_csv_header();
  const std::size_t width = expected.size();
  CsvRecordWalk walk(in);
  std::vector<JobSummary> jobs;
  std::vector<CsvRecord> records;  // the data records of one block
  std::string storage;
  std::vector<std::string_view> fields;
  bool have_header = false;
  do {
    // Phase 1, serial: walk the block's records in document order,
    // drawing `summary_io.read.row` per data row, up to the first
    // injected fault.  That fault is raised only once every record
    // before it has parsed clean.
    records.clear();
    std::exception_ptr walk_fault;  // read error or unterminated field
    std::string row_fault;          // the last record's injected fault
    CsvRecord record;
    while (next_record(walk, record, walk_fault)) {
      if (!have_header) {
        split_record(record.text, storage, fields);
        XDMODML_CHECK(std::ranges::equal(fields, expected), kBadHeader);
        have_header = true;
        continue;
      }
      records.push_back(record);
      try {
        XDMODML_FAILPOINT("summary_io.read.row");
      } catch (const fp::FailpointError& e) {
        row_fault = e.what();
        break;
      }
    }

    // Phase 2: parse the clean records straight into `jobs`, in chunks
    // on the pool.  A chunk stops at its first bad record, and the pool
    // rethrows the lowest chunk's error, so the error raised is the
    // earliest in document order.
    const std::size_t base = jobs.size();  // records[i] is row base + i + 1
    const std::size_t parsed = records.size() - (row_fault.empty() ? 0 : 1);
    jobs.resize(base + parsed);
    const auto parse_range = [&](std::size_t lo, std::size_t hi) {
      std::string chunk_storage;
      std::vector<std::string_view> row;
      for (std::size_t i = lo; i < hi; ++i) {
        split_row(records[i], base + i + 1, width, chunk_storage, row);
        try {
          parse_job(row, jobs[base + i]);
        } catch (const Error& e) {
          throw row_error(base + i + 1, records[i].line, row[0], e.what());
        }
      }
    };
    if (parsed <= kParseGrain) {
      parse_range(0, parsed);
    } else {
      try {
        ThreadPool::global().parallel_for_ranges(0, parsed, kParseGrain,
                                                 parse_range);
      } catch (const fp::FailpointError&) {
        // Pool-infrastructure fault (`thread_pool.chunk`): parsing is
        // pure, so one inline pass gives what the chunks would have.
        note_pool_fault();
        parse_range(0, parsed);
      }
    }

    if (!row_fault.empty()) {
      // A row fault's own record still gets its width check first.
      const std::size_t row = base + parsed + 1;
      split_row(records.back(), row, width, storage, fields);
      throw row_error(row, records.back().line, fields[0], row_fault.c_str());
    }
    if (walk_fault) std::rethrow_exception(walk_fault);
  } while (walk.refill());
  XDMODML_CHECK(have_header, kBadHeader);
  return jobs;
}

}  // namespace xdmodml::supremm
