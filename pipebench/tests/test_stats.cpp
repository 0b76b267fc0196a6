#include "stats.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace pipebench {
namespace {

TEST(Median, OddCountIsTheMiddleValue) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Median, EvenCountAveragesTheTwoMiddleValues) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Median, OneStalledSampleMovesItByOneRankOnly) {
  std::vector<double> v(101, 1.0);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const double before = median(v);
  v[3] = 1e9;  // a co-tenant stall
  EXPECT_DOUBLE_EQ(median(v), before + 1.0);
}

TEST(Median, RejectsAnEmptySample) {
  EXPECT_THROW(median(std::vector<double>{}), std::invalid_argument);
}

TEST(NearestRank, MatchesCeilOfQTimesN) {
  EXPECT_EQ(nearest_rank(1000, 0.99), 990u);
  EXPECT_EQ(nearest_rank(100, 0.5), 50u);
  EXPECT_EQ(nearest_rank(101, 0.5), 51u);
  EXPECT_EQ(nearest_rank(3, 0.0), 1u);
  EXPECT_EQ(nearest_rank(3, 1.0), 3u);
}

TEST(Quantile, IsTheNearestRankOrderStatistic) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 990.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 500.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 1000.0);
}

TEST(WindowRates, GroupsOpsUntilTheWindowIsFull) {
  WindowRates w(1.0);
  for (int i = 0; i < 4; ++i) w.add({0.5, 10.0});  // two full windows
  const auto rates = w.finish();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 20.0);
  EXPECT_DOUBLE_EQ(rates[1], 20.0);
}

TEST(WindowRates, FoldsAShortTrailingWindowIntoThePreviousOne) {
  WindowRates w(1.0);
  w.add({1.0, 10.0});
  w.add({0.25, 5.0});  // under half a window: folded in
  const auto rates = w.finish();
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 15.0 / 1.25);
}

TEST(WindowRates, KeepsATrailingWindowOfAtLeastHalfTheLength) {
  WindowRates w(1.0);
  w.add({1.0, 10.0});
  w.add({0.5, 20.0});
  const auto rates = w.finish();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[1], 40.0);
}

TEST(WindowRates, OneLongOpIsOneWindow) {
  WindowRates w(0.5);
  w.add({1.5, 5000.0});
  w.add({1.6, 5000.0});
  const auto rates = w.finish();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 5000.0 / 1.5);
}

TEST(WindowRates, ARunShorterThanOneWindowStillYieldsARate) {
  WindowRates w(1.0);
  w.add({0.1, 3.0});
  const auto rates = w.finish();
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 30.0);
}

}  // namespace
}  // namespace pipebench
