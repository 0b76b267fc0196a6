// Output-shape tests for the bench --json emitter: the file must be
// syntactically valid JSON, carry the required keys on every record,
// and escape quotes/backslashes in string fields.
#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace xdmodml::bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Minimal JSON syntax checker — enough to reject torn emitter output
/// (unbalanced brackets, bad literals, trailing commas) without pulling
/// in a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '[':
        return array();
      case '{':
        return object();
      case '"':
        return string();
      default:
        return number();
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
    for (;;) {
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ']') return ++pos_, true;
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == '}') return ++pos_, true;
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  bool string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // escape consumes the next char
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

class BenchJsonTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  const std::string path_ = "test_bench_json_out.json";
};

TEST_F(BenchJsonTest, EmitsValidJsonWithRequiredKeys) {
  BenchJsonRecorder recorder;
  recorder.set_path(path_);
  ASSERT_TRUE(recorder.enabled());
  recorder.record("bench_svm_tuning", "sweep_reuse", 123.5, 1600, 4, 5);
  recorder.record("bench_svm_tuning", "sweep_refit", 250.0, 1600, 4);
  recorder.write();

  const auto text = slurp(path_);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  for (const char* key : {"\"bench\"", "\"op\"", "\"wall_ms\"", "\"n_jobs\"",
                          "\"threads\"", "\"repeats\""}) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing key " << key;
  }
  EXPECT_NE(text.find("\"sweep_reuse\""), std::string::npos);
  EXPECT_NE(text.find("123.5"), std::string::npos);
  // Median-of-N rows carry their repeat count; legacy single-shot
  // records default to 1.
  EXPECT_NE(text.find("\"repeats\": 5"), std::string::npos);
  EXPECT_NE(text.find("\"repeats\": 1"), std::string::npos);
}

/// The string value of `"key": "..."` in a record line, or "" if absent.
std::string string_field(const std::string& line, const std::string& key) {
  const std::string open = "\"" + key + "\": \"";
  const auto at = line.find(open);
  if (at == std::string::npos) return "";
  const auto begin = at + open.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

TEST_F(BenchJsonTest, EveryRowCarriesTheHostStamp) {
  BenchJsonRecorder recorder;
  recorder.set_path(path_);
  recorder.record("bench_smo_solver", "ovo20_fit_engine", 10.0, 2000, 4, 3);
  recorder.record("bench_smo_solver", "gram_sweep_scalar", 5.0, 2000, 4);
  recorder.write();

  const auto text = slurp(path_);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  std::istringstream lines(text);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"bench\"") == std::string::npos) continue;
    ++rows;
    const auto nproc = line.find("\"nproc\": ");
    ASSERT_NE(nproc, std::string::npos) << line;
    EXPECT_GE(std::stoi(line.substr(nproc + 9)), 1) << line;
    EXPECT_EQ(string_field(line, "isa"), simd::isa_name(simd::active()));
    EXPECT_FALSE(string_field(line, "compiler").empty()) << line;
    EXPECT_FALSE(string_field(line, "build_type").empty()) << line;
    // The source tree's HEAD (marked -dirty when tracked files differ
    // from it), or "none" outside a git work tree.
    auto commit = string_field(line, "commit");
    if (commit.ends_with("-dirty")) commit.resize(commit.size() - 6);
    EXPECT_TRUE(commit == "none" ||
                (commit.size() == 40 &&
                 commit.find_first_not_of("0123456789abcdef") ==
                     std::string::npos))
        << line;
  }
  EXPECT_EQ(rows, 2u);
}

TEST(TimeMedianMs, MedianOverRepeatsAndRepeatCountReported) {
  int calls = 0;
  const auto timed = time_median_ms([&] { ++calls; }, 5, 2);
  EXPECT_EQ(calls, 7);  // 2 warm-up + 5 timed
  EXPECT_EQ(timed.repeats, 5u);
  EXPECT_GE(timed.median_ms, 0.0);

  // repeats == 0 is clamped to one timed run.
  calls = 0;
  const auto single = time_median_ms([&] { ++calls; }, 0, 0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(single.repeats, 1u);
}

TEST_F(BenchJsonTest, EscapesQuotesAndBackslashes) {
  BenchJsonRecorder recorder;
  recorder.set_path(path_);
  recorder.record("bench\\one", "op \"quoted\"", 1.0, 10, 1);
  recorder.write();

  const auto text = slurp(path_);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("bench\\\\one"), std::string::npos);
  EXPECT_NE(text.find("op \\\"quoted\\\""), std::string::npos);
}

TEST_F(BenchJsonTest, WriteClearsRecordsAndEmptyWriteIsNoOp) {
  BenchJsonRecorder recorder;
  recorder.set_path(path_);
  recorder.record("b", "op", 2.0, 1, 1);
  recorder.write();
  ASSERT_FALSE(slurp(path_).empty());

  // A second write with no new records must not rewrite (or truncate)
  // the file: records were drained by the first write.
  std::remove(path_.c_str());
  recorder.write();
  std::ifstream probe(path_);
  EXPECT_FALSE(probe.good());
}

TEST_F(BenchJsonTest, DisabledRecorderWritesNothing) {
  BenchJsonRecorder recorder;  // no path
  EXPECT_FALSE(recorder.enabled());
  recorder.record("b", "op", 2.0, 1, 1);
  recorder.write();  // no path: silent no-op
  std::ifstream probe(path_);
  EXPECT_FALSE(probe.good());
}

TEST_F(BenchJsonTest, ParseArgsPicksJsonFlagAnywhere) {
  BenchJsonRecorder recorder;
  std::string a0 = "bench";
  std::string a1 = "--benchmark_filter=none";
  std::string a2 = "--json=" + path_;
  char* argv[] = {a0.data(), a1.data(), a2.data()};
  recorder.parse_args(3, argv);
  EXPECT_TRUE(recorder.enabled());
  recorder.record("b", "op", 3.0, 2, 1);
  recorder.write();
  EXPECT_TRUE(JsonChecker(slurp(path_)).valid());
}

}  // namespace
}  // namespace xdmodml::bench
