// Round-trip tests for the job-summary CSV interchange format.
#include "supremm/summary_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
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

// The reader walks each 1 MiB block's records serially and parses them
// in chunks of 64 on the pool, so these exports are large enough to
// leave the inline path: every 37th row's executable path holds a
// comma, a quote and two newlines, so quoted multi-line records fall on
// chunk edges and 1 MiB block edges (6 000 rows make about 5.8 MB).
constexpr std::size_t kWrapEvery = 37;

bool wraps(std::size_t row) { return row % kWrapEvery == 0; }

std::vector<JobSummary> export_jobs(std::size_t rows) {
  static const auto pool = [] {
    auto gen = workload::WorkloadGenerator::standard({}, 93);
    auto jobs = workload::summaries_of(gen.generate_native(60));
    for (auto more : {workload::summaries_of(gen.generate_uncategorized(20)),
                      workload::summaries_of(gen.generate_na(20))}) {
      jobs.insert(jobs.end(), more.begin(), more.end());
    }
    return jobs;
  }();
  std::vector<JobSummary> jobs;
  jobs.reserve(rows);
  for (std::size_t row = 1; row <= rows; ++row) {
    JobSummary job = pool[row % pool.size()];
    job.job_id = 7'000'000 + row;
    if (wraps(row)) {
      job.executable_path = "/work/run " + std::to_string(row) +
                            ",\"tag\"\nsecond line\nthird";
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string csv_of(const std::vector<JobSummary>& jobs) {
  std::ostringstream out;
  write_jobs_csv(out, jobs);
  return std::move(out).str();
}

std::vector<JobSummary> read_text(const std::string& text) {
  std::istringstream in(text);
  return read_jobs_csv(in);
}

// The physical line data row `row` of an export_jobs document starts on.
std::size_t line_of(std::size_t row) {
  return row + 1 + 2 * ((row - 1) / kWrapEvery);
}

// Total physical lines of an export_jobs document of `rows` rows.
std::size_t lines_of(std::size_t rows) {
  return 1 + rows + 2 * (rows / kWrapEvery);
}

// The data row whose record holds byte `offset` of an export_jobs text.
std::size_t row_at(const std::string& text, std::size_t offset) {
  const auto start = text.rfind("\n700", offset);  // ids 7000001 on
  return std::stoul(text.substr(start + 1, 7)) - 7'000'000;
}

TEST(SummaryIoBlocks, RoundTripIsByteIdenticalAcrossChunksAndBlocks) {
  for (const std::size_t rows : {0u, 1u, 63u, 64u, 65u, 1000u, 6000u}) {
    SCOPED_TRACE(std::to_string(rows) + " rows");
    auto jobs = export_jobs(rows);
    if (rows == 6000) {
      // Also wrap the record that holds the first 1 MiB block edge, so a
      // quoted multi-line record is carried into the next block.
      auto& job = jobs[row_at(csv_of(jobs), std::size_t{1} << 20) - 1];
      job.executable_path = "/edge,\"x\"\n" + job.executable_path;
    }
    const auto text = csv_of(jobs);
    const auto loaded = read_text(text);
    ASSERT_EQ(loaded.size(), rows);
    EXPECT_EQ(csv_of(loaded), text);
    for (std::size_t row = kWrapEvery; row <= rows; row += kWrapEvery) {
      EXPECT_EQ(loaded[row - 1].executable_path, jobs[row - 1].executable_path);
    }
  }
}

// Replaces data row `row`'s job_id (7000000 + row) with `bad`.
void corrupt_job_id(std::string& text, std::size_t row,
                    const std::string& bad) {
  const std::string id = "\n" + std::to_string(7'000'000 + row) + ",";
  const auto at = text.find(id);
  ASSERT_NE(at, std::string::npos) << row;
  text.replace(at + 1, id.size() - 2, bad);
}

// The error names `row`, the physical line it starts on and its field.
void expect_row_named(const std::string& text, std::size_t row,
                      const std::string& field) {
  try {
    read_text(text);
    FAIL() << "expected InvalidArgument naming row " << row;
  } catch (const InvalidArgument& e) {
    const std::string want = "job CSV data row " + std::to_string(row) +
                             " (line " + std::to_string(line_of(row)) +
                             ", job_id field '" + field + "')";
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(SummaryIoBlocks, FirstFaultInDocumentOrderWins) {
  // Rows 66 and 71 share a chunk, rows 40 and 700 do not, and rows
  // 3 001 and 5 001 sit in different 1 MiB blocks.
  const std::pair<std::size_t, std::size_t> pairs[] = {
      {66, 71}, {40, 700}, {3001, 5001}};
  const auto text = csv_of(export_jobs(6000));
  for (const auto& [first, second] : pairs) {
    SCOPED_TRACE("rows " + std::to_string(first) + " and " +
                 std::to_string(second));
    auto later_only = text;
    corrupt_job_id(later_only, second, "bad-later");
    expect_row_named(later_only, second, "bad-later");
    auto both = later_only;
    corrupt_job_id(both, first, "bad-first");
    expect_row_named(both, first, "bad-first");
  }
}

// The draw on which a fresh (spec, seed) arming of `site` first fires:
// the replay the reader's draws must follow.
std::size_t first_firing_draw(const std::string& spec, const char* site,
                              std::uint64_t seed, std::size_t limit) {
  fp::reset();
  fp::arm_from_spec(spec, seed);
  std::size_t draws = 0;
  while (draws < limit) {
    ++draws;
    try {
      XDMODML_FAILPOINT(site);
    } catch (const fp::FailpointError&) {
      break;
    }
  }
  fp::reset();
  return draws;
}

TEST(SummaryIoBlocks, RowFaultReplaysBySeed) {
  constexpr std::size_t kRows = 1000;
  const auto text = csv_of(export_jobs(kRows));
  const std::string spec = "summary_io.read.row=one_in(200):error(3)";
  int fired = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::size_t row =
        first_firing_draw(spec, "summary_io.read.row", seed, kRows + 1);
    fp::arm_from_spec(spec, seed);
    try {
      const auto jobs = read_text(text);
      EXPECT_GT(row, kRows);
      EXPECT_EQ(jobs.size(), kRows);
    } catch (const InvalidArgument& e) {
      ++fired;
      const std::string want = "job CSV data row " + std::to_string(row) +
                               " (line " + std::to_string(line_of(row)) +
                               ", job_id field '" +
                               std::to_string(7'000'000 + row) +
                               "'): failpoint 'summary_io.read.row'";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(fp::site_stats("summary_io.read.row").evaluations,
              std::min(row, kRows));
    fp::reset();
  }
  EXPECT_GT(fired, 0);
}

TEST(SummaryIoBlocks, ReadFaultReplaysBySeed) {
  constexpr std::size_t kRows = 1000;
  const auto text = csv_of(export_jobs(kRows));
  const std::size_t lines = lines_of(kRows);
  const std::string spec = "csv.parse.read=one_in(500):error(2)";
  int fired = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::size_t line =
        first_firing_draw(spec, "csv.parse.read", seed, lines + 1);
    fp::arm_from_spec(spec, seed);
    try {
      const auto jobs = read_text(text);
      EXPECT_GT(line, lines);
      EXPECT_EQ(jobs.size(), kRows);
    } catch (const ComputeError& e) {
      ++fired;
      EXPECT_NE(std::string(e.what()).find(
                    "CSV read failed at line " + std::to_string(line) + ":"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(fp::site_stats("csv.parse.read").evaluations,
              std::min(line, lines));
    fp::reset();
  }
  EXPECT_GT(fired, 0);
}

TEST(SummaryIoBlocks, RaggedRowBeforeAReadFaultWins) {
  // Row 100 gains a column; a read fault armed on a later line of the
  // same block must not be the error raised.
  constexpr std::size_t kRows = 1000;
  auto text = csv_of(export_jobs(kRows));
  corrupt_job_id(text, 100, "7000100,extra");
  const std::size_t lines = lines_of(kRows);
  const std::string spec = "csv.parse.read=one_in(500):error(2)";
  std::uint64_t seed = 0;
  while (true) {
    const auto line = first_firing_draw(spec, "csv.parse.read", seed, lines);
    if (line > line_of(100) && line < lines) break;
    ++seed;
  }
  fp::arm_from_spec(spec, seed);
  try {
    read_text(text);
    ADD_FAILURE() << "expected the ragged-row error";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "CSV data row 100 (line " + std::to_string(line_of(100)) +
                  ") has 60 fields; the header has 59"),
              std::string::npos)
        << e.what();
  }
  fp::reset();
}

TEST(SummaryIoBlocks, RowFaultOnARaggedRowRaisesTheRaggedRow) {
  // Within a record the width check comes before the row draw.
  constexpr std::size_t kRows = 1000;
  const std::string spec = "summary_io.read.row=one_in(200):error(3)";
  std::uint64_t seed = 0;
  std::size_t row = 0;
  while ((row = first_firing_draw(spec, "summary_io.read.row", seed,
                                  kRows)) >= kRows) {
    ++seed;
  }
  auto text = csv_of(export_jobs(kRows));
  corrupt_job_id(text, row, std::to_string(7'000'000 + row) + ",extra");
  fp::arm_from_spec(spec, seed);
  try {
    read_text(text);
    ADD_FAILURE() << "expected the ragged-row error";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "CSV data row " + std::to_string(row) + " (line " +
                  std::to_string(line_of(row)) + ") has 60 fields"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fp::site_stats("summary_io.read.row").triggers, 1u);
  fp::reset();
}

TEST(SummaryIoBlocks, PoolFaultReparsesInlineAndCountsItsOwnRetry) {
  const auto jobs = export_jobs(1000);
  const auto text = csv_of(jobs);
  auto& registry = obs::MetricsRegistry::instance();
  const auto before = registry.snapshot();
  fp::reset();
  fp::arm("thread_pool.chunk", fp::Policy::parse("error(3)"));
  const auto loaded = read_text(text);
  const auto triggers = fp::site_stats("thread_pool.chunk").triggers;
  fp::reset();
  const auto after = registry.snapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  EXPECT_GT(triggers, 0u);
  EXPECT_EQ(csv_of(loaded), text);
  EXPECT_GE(delta("retry.summary_io.parse_serial"), 1u);
  EXPECT_EQ(delta("fail.summary_io.parse_batch"),
            delta("retry.summary_io.parse_serial"));
  EXPECT_EQ(delta("fail.service.batch"), 0u);
  EXPECT_EQ(delta("retry.service.batch_serial"), 0u);
}

}  // namespace
}  // namespace xdmodml::supremm
