// Round-trip tests for the job-summary CSV interchange format.
#include "supremm/summary_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

namespace xdmodml::supremm {
namespace {

TEST(SummaryIo, HeaderShape) {
  const auto header = jobs_csv_header();
  // 11 accounting fields + 26 means + 22 COVs.
  EXPECT_EQ(header.size(), 59u);
  EXPECT_EQ(header.front(), "job_id");
  EXPECT_EQ(header[11], "CPU_USER");
  EXPECT_EQ(header.back(), "LOCAL_DISK_WRITE_IOS_COV");
}

TEST(SummaryIo, RoundTripPreservesEverything) {
  auto gen = workload::WorkloadGenerator::standard({}, 77);
  auto jobs = workload::summaries_of(gen.generate_native(25));
  auto uncat = workload::summaries_of(gen.generate_uncategorized(5));
  auto na = workload::summaries_of(gen.generate_na(5));
  jobs.insert(jobs.end(), uncat.begin(), uncat.end());
  jobs.insert(jobs.end(), na.begin(), na.end());

  std::ostringstream out;
  write_jobs_csv(out, jobs);
  std::istringstream in(out.str());
  const auto loaded = read_jobs_csv(in);

  ASSERT_EQ(loaded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& a = jobs[i];
    const auto& b = loaded[i];
    EXPECT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.executable_path, b.executable_path);
    EXPECT_EQ(a.application, b.application);
    EXPECT_EQ(a.category, b.category);
    EXPECT_EQ(a.label_source, b.label_source);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.cores_per_node, b.cores_per_node);
    EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
    EXPECT_DOUBLE_EQ(a.start_epoch_seconds, b.start_epoch_seconds);
    EXPECT_EQ(a.exit_code, b.exit_code);
    EXPECT_EQ(a.application_succeeded, b.application_succeeded);
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
      EXPECT_DOUBLE_EQ(a.means[m], b.means[m]) << "metric " << m;
      if (metric_catalog()[m].has_cov) {
        EXPECT_DOUBLE_EQ(a.covs[m], b.covs[m]) << "cov " << m;
      }
    }
  }
}

TEST(SummaryIo, RejectsWrongHeader) {
  std::istringstream in("foo,bar\n1,2\n");
  EXPECT_THROW(read_jobs_csv(in), InvalidArgument);
}

TEST(SummaryIo, RejectsBadNumericField) {
  auto gen = workload::WorkloadGenerator::standard({}, 78);
  const auto jobs = workload::summaries_of(gen.generate_native(1));
  std::ostringstream out;
  write_jobs_csv(out, jobs);
  auto text = out.str();
  // Corrupt the wall_seconds field of the data row.
  const auto row_start = text.find('\n') + 1;
  auto pos = row_start;
  for (int commas = 0; commas < 7; ++pos) {
    if (text[pos] == ',') ++commas;
  }
  text.insert(pos, "x");
  std::istringstream in(text);
  EXPECT_THROW(read_jobs_csv(in), std::exception);
}

// Bit-for-bit comparison: -0.0 vs 0.0 and every subnormal digit count.
void expect_identical(const JobSummary& a, const JobSummary& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(a.job_id, b.job_id);
  EXPECT_EQ(a.executable_path, b.executable_path);
  EXPECT_EQ(a.application, b.application);
  EXPECT_EQ(a.category, b.category);
  EXPECT_EQ(a.label_source, b.label_source);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.cores_per_node, b.cores_per_node);
  EXPECT_EQ(bits(a.wall_seconds), bits(b.wall_seconds));
  EXPECT_EQ(bits(a.start_epoch_seconds), bits(b.start_epoch_seconds));
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.application_succeeded, b.application_succeeded);
  for (std::size_t m = 0; m < kNumMetrics; ++m) {
    EXPECT_EQ(bits(a.means[m]), bits(b.means[m])) << "metric " << m;
    if (metric_catalog()[m].has_cov) {
      EXPECT_EQ(bits(a.covs[m]), bits(b.covs[m])) << "cov " << m;
    }
  }
}

std::vector<JobSummary> round_trip(const std::vector<JobSummary>& jobs,
                                   bool crlf) {
  std::ostringstream out;
  write_jobs_csv(out, jobs);
  std::string text = out.str();
  if (crlf) {
    std::string converted;
    for (const char c : text) {
      if (c == '\n') converted += '\r';
      converted += c;
    }
    text = std::move(converted);
  }
  std::istringstream in(text);
  return read_jobs_csv(in);
}

// Generator jobs from all three pools plus hand-made edge rows.
std::vector<JobSummary> edge_jobs(bool multiline_paths) {
  auto gen = workload::WorkloadGenerator::standard({}, 91);
  auto jobs = workload::summaries_of(gen.generate_native(10));
  for (auto pool : {workload::summaries_of(gen.generate_uncategorized(4)),
                    workload::summaries_of(gen.generate_na(4))}) {
    jobs.insert(jobs.end(), pool.begin(), pool.end());
  }
  JobSummary odd = jobs.front();
  odd.job_id = std::numeric_limits<std::uint64_t>::max();
  odd.executable_path = "/work/apps/a,b/\"quoted\" run";
  odd.nodes = std::numeric_limits<std::uint32_t>::max();
  odd.exit_code = std::numeric_limits<int>::min();
  odd.application_succeeded = false;
  odd.wall_seconds = -0.0;
  odd.start_epoch_seconds = std::numeric_limits<double>::denorm_min();
  odd.means[0] = 1e-310;
  odd.means[1] = -std::numeric_limits<double>::min() / 3.0;
  odd.means[2] = std::numeric_limits<double>::max();
  odd.covs[0] = -0.0;
  jobs.push_back(odd);
  if (multiline_paths) {
    JobSummary wrapped = jobs[1];
    wrapped.executable_path = "line one\nline \"two\",\n\nend";
    jobs.push_back(wrapped);
  }
  return jobs;
}

TEST(SummaryIo, RoundTripIsBitIdentical) {
  for (const bool crlf : {false, true}) {
    SCOPED_TRACE(crlf ? "CRLF line ends" : "LF line ends");
    // Under CRLF line ends an embedded newline would gain a CR inside
    // its quotes, so that case keeps every field on one line.
    const auto jobs = edge_jobs(/*multiline_paths=*/!crlf);
    const auto loaded = round_trip(jobs, crlf);
    ASSERT_EQ(loaded.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      expect_identical(jobs[i], loaded[i]);
    }
  }
}

// One generated job written out, with data-row column `column` replaced.
std::string with_field(std::size_t column, const std::string& value) {
  auto gen = workload::WorkloadGenerator::standard({}, 79);
  const auto jobs = workload::summaries_of(gen.generate_native(1));
  std::ostringstream out;
  write_jobs_csv(out, jobs);
  std::string text = out.str();
  auto begin = text.find('\n') + 1;
  for (std::size_t c = 0; c < column; ++c) begin = text.find(',', begin) + 1;
  const auto end = text.find_first_of(",\n", begin);
  text.replace(begin, end - begin, value);
  return text;
}

JobSummary read_one(const std::string& text) {
  std::istringstream in(text);
  const auto jobs = read_jobs_csv(in);
  EXPECT_EQ(jobs.size(), 1u);
  return jobs.empty() ? JobSummary{} : jobs.front();
}

void expect_row_error(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  try {
    read_jobs_csv(in);
    FAIL() << "expected InvalidArgument for " << needle;
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("data row 1 (line 2"), std::string::npos)
        << message;
    EXPECT_NE(message.find(needle), std::string::npos) << message;
  }
}

constexpr std::size_t kJobId = 0;
constexpr std::size_t kNodes = 5;
constexpr std::size_t kCoresPerNode = 6;
constexpr std::size_t kExitCode = 9;
constexpr std::size_t kSucceeded = 10;

TEST(SummaryIo, JobIdAboveTwoToThe53IsExact) {
  // Read through a double, ...993 came back as ...992.
  EXPECT_EQ(read_one(with_field(kJobId, "9007199254740993")).job_id,
            9007199254740993ULL);
}

TEST(SummaryIo, NegativeJobIdIsRejected) {
  // Cast from a double, -7 became 18446744073709551609.
  expect_row_error(with_field(kJobId, "-7"), "integer field job_id");
}

TEST(SummaryIo, NodeCountsOutsideUint32AreRejected) {
  // Cast from a double, -1 became 4294967295 and 4294967297 became 1;
  // both then passed Warehouse::validate.
  expect_row_error(with_field(kNodes, "-1"), "integer field nodes");
  expect_row_error(with_field(kNodes, "4294967297"), "integer field nodes");
  expect_row_error(with_field(kCoresPerNode, "-1"),
                   "integer field cores_per_node");
  EXPECT_EQ(read_one(with_field(kNodes, "4294967295")).nodes, 4294967295u);
}

TEST(SummaryIo, NonIntegralExitCodeIsRejected) {
  // Cast from a double, 1e12 became INT_MIN (undefined behaviour).
  expect_row_error(with_field(kExitCode, "1e12"), "integer field exit_code");
  expect_row_error(with_field(kExitCode, "2147483648"),
                   "integer field exit_code");
  EXPECT_EQ(read_one(with_field(kExitCode, "-9")).exit_code, -9);
}

TEST(SummaryIo, ApplicationSucceededMustBeZeroOrOne) {
  // Any value but "1" used to read as false.
  expect_row_error(with_field(kSucceeded, "2"), "application_succeeded");
  expect_row_error(with_field(kSucceeded, "true"), "application_succeeded");
  expect_row_error(with_field(kSucceeded, ""), "application_succeeded");
  EXPECT_FALSE(read_one(with_field(kSucceeded, "0")).application_succeeded);
}

TEST(SummaryIo, NumericGrammarIsStrict) {
  // stod accepted a leading '+', leading whitespace and hex floats.
  constexpr std::size_t kWall = 7;
  expect_row_error(with_field(kWall, "+1.5"), "numeric field: +1.5");
  expect_row_error(with_field(kWall, " 1.5"), "numeric field:  1.5");
  expect_row_error(with_field(kWall, "0x1p3"), "numeric field: 0x1p3");
  EXPECT_EQ(read_one(with_field(kWall, "1e-310")).wall_seconds, 1e-310);
}

TEST(SummaryIo, EmptyDocumentRoundTrips) {
  std::ostringstream out;
  write_jobs_csv(out, {});
  std::istringstream in(out.str());
  EXPECT_TRUE(read_jobs_csv(in).empty());
}

}  // namespace
}  // namespace xdmodml::supremm
