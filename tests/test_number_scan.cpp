// The strict number grammar shared by the text input boundaries, as a
// table: each token under the job-CSV rule (scan_double on one field)
// and under the model-stream rule (TokenReader::read_double, which adds
// the finite check and splits tokens on whitespace).  Plus the integer
// form's type-range checks.
#include "util/number_scan.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "ml/model_io.hpp"
#include "util/error.hpp"

namespace xdmodml {
namespace {

struct GrammarCase {
  std::string token;
  bool csv_ok;
  bool model_ok;
  double value;  // expected value where accepted (NaN: any NaN)
};

const double kNan = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

const GrammarCase kGrammar[] = {
    // Subnormals are in range (stod threw on them).
    {"1e-310", true, true, 1e-310},
    {"4.9406564584124654e-324", true, true,
     std::numeric_limits<double>::denorm_min()},
    // Underflow to zero and overflow are out of range everywhere.
    {"1e-400", false, false, 0.0},
    {"1e400", false, false, 0.0},
    // Non-finite values: the CSV carries them, model streams refuse them.
    {"nan", true, false, kNan},
    {"-nan", true, false, kNan},
    {"inf", true, false, kInf},
    // No leading '+' and no hex floats; the writers never emit either.
    {"+1.5", false, false, 0.0},
    {"0x1p3", false, false, 0.0},
    // Whitespace is part of a CSV field but separates model tokens.
    {" 1.5", false, true, 1.5},
    {"1.5 ", false, true, 1.5},
    // An empty field is no number; an empty model token is a truncation.
    {"", false, false, 0.0},
    {"-0", true, true, -0.0},
    {"1.5e", false, false, 0.0},
    {"17.25", true, true, 17.25},
};

bool same_value(double got, double want) {
  if (std::isnan(want)) return std::isnan(got);
  return std::bit_cast<std::uint64_t>(got) ==
         std::bit_cast<std::uint64_t>(want);
}

TEST(NumberScan, GrammarUnderTheCsvRule) {
  for (const auto& c : kGrammar) {
    SCOPED_TRACE("token '" + c.token + "'");
    const auto v = scan_double(c.token);
    ASSERT_EQ(v.has_value(), c.csv_ok);
    if (v) {
      EXPECT_TRUE(same_value(*v, c.value)) << *v;
    }
  }
  const auto negative_nan = scan_double("-nan");
  ASSERT_TRUE(negative_nan.has_value());
  EXPECT_TRUE(std::signbit(*negative_nan));
}

TEST(NumberScan, GrammarUnderTheModelStreamRule) {
  for (const auto& c : kGrammar) {
    SCOPED_TRACE("token '" + c.token + "'");
    std::istringstream in("t " + c.token);
    ml::io::TokenReader reader(in);
    if (c.model_ok) {
      EXPECT_TRUE(same_value(reader.read_double("t"), c.value));
    } else {
      EXPECT_THROW(reader.read_double("t"), InvalidArgument);
    }
  }
}

TEST(NumberScan, VectorElementsFollowTheModelStreamRule) {
  std::istringstream good("v 3 1e-310 -0 2.5");
  ml::io::TokenReader reader(good);
  const auto values = reader.read_vector("v");
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], 1e-310);
  EXPECT_TRUE(std::signbit(values[1]));
  for (const char* bad : {"v 2 1 nan", "v 2 1 inf", "v 2 1 0x1p3",
                          "v 2 1 1e400", "v 2 1"}) {
    SCOPED_TRACE(bad);
    std::istringstream in(bad);
    ml::io::TokenReader r(in);
    EXPECT_THROW(r.read_vector("v"), InvalidArgument);
  }
}

TEST(NumberScan, HugeVectorLengthFailsAsTruncation) {
  // The count sizes no allocation: a corrupt length runs out of tokens.
  std::istringstream in("v 4611686018427387904 1.5");
  ml::io::TokenReader reader(in);
  EXPECT_THROW(reader.read_vector("v"), InvalidArgument);
  std::istringstream idx("i 4611686018427387904 7");
  ml::io::TokenReader reader2(idx);
  EXPECT_THROW(reader2.read_index_vector("i"), InvalidArgument);
}

TEST(NumberScan, IntegersParseIntoTheirOwnType) {
  EXPECT_EQ(scan_int<std::uint64_t>("9007199254740993"),
            std::uint64_t{9007199254740993ULL});
  EXPECT_EQ(scan_int<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(scan_int<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(scan_int<std::uint64_t>("-7"));
  EXPECT_FALSE(scan_int<std::uint32_t>("-1"));
  EXPECT_FALSE(scan_int<std::uint32_t>("4294967297"));
  EXPECT_EQ(scan_int<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_EQ(scan_int<int>("-2147483648"), std::numeric_limits<int>::min());
  EXPECT_FALSE(scan_int<int>("2147483648"));
  EXPECT_FALSE(scan_int<int>("1e12"));
  EXPECT_FALSE(scan_int<int>("1.0"));
  EXPECT_FALSE(scan_int<int>("+5"));
  EXPECT_FALSE(scan_int<int>(" 5"));
  EXPECT_FALSE(scan_int<int>("5 "));
  EXPECT_FALSE(scan_int<int>(""));
}

TEST(NumberScan, ModelStreamIntegersAreWholeTokens) {
  // `>> int64_t` read "1" of "1.0" and left ".0" for the next tag check.
  std::istringstream in("n 1.0");
  ml::io::TokenReader reader(in);
  EXPECT_THROW(reader.read_int("n"), InvalidArgument);
  std::istringstream ok("n -42");
  ml::io::TokenReader reader2(ok);
  EXPECT_EQ(reader2.read_int("n"), -42);
}

}  // namespace
}  // namespace xdmodml
