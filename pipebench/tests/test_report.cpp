#include "report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace pipebench {
namespace {

TEST(FormatNumber, KeepsEveryDigitAndRoundTrips) {
  const double v = 1.0 / 3.0;
  const std::string text = format_number(v);
  EXPECT_EQ(std::stod(text), v);
  EXPECT_EQ(format_number(0.8127), "0.8127");
  EXPECT_EQ(format_number(1000.0), "1000");
}

TEST(FormatNumber, RejectsValuesJsonCannotCarry) {
  EXPECT_THROW(format_number(std::nan("")), std::invalid_argument);
  EXPECT_THROW(format_number(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(ResultJson, HasExactlyTheContractKeys) {
  const std::vector<Metric> metrics{
      {"latency_ms_p50", "ms", 1.2034, 5000, "jobs"},
      {"setup_s", "s", 0.8127, 3, "setups"}};
  EXPECT_EQ(result_json(true, 1000, 0, metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms_p50\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}");
}

TEST(ResultJson, IsOneLine) {
  const std::vector<Metric> metrics{{"jobs_per_s", "jobs/s", 12.5, 20, "w"}};
  EXPECT_EQ(result_json(false, 3, 1, metrics).find('\n'), std::string::npos);
}

TEST(ResultJson, RefusesNamesThatNeedEscaping) {
  const std::vector<Metric> metrics{{"bad\"name", "ms", 1.0, 1, "ops"}};
  EXPECT_THROW(result_json(true, 1, 0, metrics), std::invalid_argument);
}

TEST(MetricLine, NamesTheUnitAndTheSampleCount) {
  const Metric m{"jobs_per_s", "jobs/s", 20345.5, 21, "windows"};
  EXPECT_EQ(metric_line(m), "metric jobs_per_s = 20345.5 jobs/s (n=21 windows)");
}

TEST(PhaseLine, CountsAttemptedSucceededAndFailed) {
  const PhaseCount c{"timed", 200, 4};
  EXPECT_EQ(c.succeeded(), 196u);
  EXPECT_DOUBLE_EQ(c.failed_share(), 0.02);
  EXPECT_EQ(phase_line(c),
            "phase timed: attempted=200 succeeded=196 failed=4 "
            "failed_share=0.02");
  const PhaseCount empty{"empty", 0, 0};
  EXPECT_DOUBLE_EQ(empty.failed_share(), 0.0);
}

}  // namespace
}  // namespace pipebench
