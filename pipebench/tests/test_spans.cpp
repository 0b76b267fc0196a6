#include "spans.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace pipebench {
namespace {

TEST(SpanRecorder, NestsSpansUnderTheInnermostOpenOne) {
  SpanRecorder rec(16);
  rec.next_op();
  {
    Span op(&rec, "op");
    Span child(&rec, "child");
  }
  const auto& spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[0].op, spans[1].op);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(SpanRecorder, SelfTimeSubtractsDirectChildrenAndCoverageSumsThem) {
  SpanRecorder rec(16);
  rec.next_op();
  { Span op(&rec, "op"); { Span a(&rec, "a"); } { Span b(&rec, "b"); } }
  const auto& spans = rec.spans();
  const auto self = rec.self_times();
  const auto children = spans[1].duration_ns() + spans[2].duration_ns();
  EXPECT_EQ(self.at("op").at(0), spans[0].duration_ns() - children);
  EXPECT_EQ(self.at("a").at(0), spans[1].duration_ns());
  const auto cov = rec.op_coverage("op");
  ASSERT_EQ(cov.size(), 1u);
  EXPECT_EQ(cov[0].covered_ns, children);
  EXPECT_EQ(cov[0].wall_ns, spans[0].duration_ns());
  EXPECT_TRUE(rec.op_coverage("other").empty());
}

TEST(SpanRecorder, ANullRecorderRecordsNothing) {
  Span s(nullptr, "ignored");
  SUCCEED();
}

TEST(SpanRecorder, ReportsWhenItRunsOutOfRoom) {
  SpanRecorder rec(2);
  EXPECT_TRUE(rec.has_room(2));
  { Span a(&rec, "a"); }
  EXPECT_FALSE(rec.has_room(2));
  EXPECT_TRUE(rec.has_room(1));
}

TEST(SpanRecorder, WritesOneLinePerSpanPlusAHeader) {
  SpanRecorder rec(8);
  rec.next_op();
  { Span op(&rec, "op"); Span c(&rec, "child"); }
  const std::string path = testing::TempDir() + "pipebench_spans_test.tsv";
  ASSERT_TRUE(rec.write(path));
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pipebench
