// Tests for CSV escaping, writing and parsing (round-trip included),
// plus the parser's fault sites (csv.parse.read / csv.parse.truncate).
#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace xdmodml {
namespace {

TEST(CsvEscape, PlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscape, CommaQuoted) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
}

TEST(CsvEscape, QuoteDoubled) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, NewlineQuoted) {
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriter, WritesRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row(std::vector<std::string>{"x", "y"});
  w.write_row(std::vector<double>{1.5, -2.0});
  EXPECT_EQ(os.str(), "x,y\n1.5,-2\n");
}

TEST(CsvParse, SimpleLine) {
  const auto fields = parse_csv_line("a,b,c");
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvParse, EmptyFieldsKept) {
  const auto fields = parse_csv_line("a,,c,");
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "", "c", ""}));
}

TEST(CsvParse, QuotedCommaAndQuote) {
  const auto fields = parse_csv_line("\"a,b\",\"say \"\"hi\"\"\"");
  EXPECT_EQ(fields, (std::vector<std::string>{"a,b", "say \"hi\""}));
}

TEST(CsvParse, ToleratesCrlf) {
  const auto fields = parse_csv_line("a,b\r");
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "b"}));
}

TEST(CsvParse, DocumentHeaderAndRows) {
  std::istringstream in("name,value\nfoo,1\nbar,2\n");
  const auto doc = parse_csv(in);
  EXPECT_EQ(doc.header, (std::vector<std::string>{"name", "value"}));
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][0], "bar");
  EXPECT_EQ(doc.column_index("value"), 1u);
  EXPECT_THROW(doc.column_index("missing"), InvalidArgument);
}

TEST(CsvParse, RejectsRaggedRows) {
  std::istringstream in("a,b\n1,2,3\n");
  EXPECT_THROW(parse_csv(in), InvalidArgument);
}

TEST(CsvParse, RaggedRowMessageNamesRowAndWidths) {
  std::istringstream in("a,b\n1,2\n1,2,3\n");
  try {
    parse_csv(in);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("row 2"), std::string::npos) << message;
    EXPECT_NE(message.find("3 fields"), std::string::npos) << message;
    EXPECT_NE(message.find("header has 2"), std::string::npos) << message;
  }
}

TEST(CsvParse, RaggedRowAfterQuotedNewlinesReportsPhysicalLine) {
  // Data row 1 spans physical lines 2-3 (quoted embedded newline), so
  // the ragged row 2 starts on physical line 4.  The old message used
  // the logical row count as the line number, which pointed an editor
  // two lines too high the moment any earlier field wrapped.
  std::istringstream in("a,b\n1,\"x\ny\"\n1,2,3\n");
  try {
    parse_csv(in);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("row 2"), std::string::npos) << message;
    EXPECT_NE(message.find("(line 4)"), std::string::npos) << message;
    EXPECT_NE(message.find("3 fields"), std::string::npos) << message;
    EXPECT_NE(message.find("header has 2"), std::string::npos) << message;
  }
}

TEST(CsvParse, MultiLineRaggedRowReportsItsOwnStartLine) {
  // The ragged record itself spans lines 2-3; the report must name the
  // line where the record *begins*, not where it ends.
  std::istringstream in("a,b\n\"p\nq\",2,3\n");
  try {
    parse_csv(in);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("row 1"), std::string::npos) << message;
    EXPECT_NE(message.find("(line 2)"), std::string::npos) << message;
  }
}

TEST(CsvParse, UnterminatedQuoteReportsStartLine) {
  std::istringstream in("a,b\n1,2\n3,\"never closed\nmore\n");
  try {
    parse_csv(in);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("starting at line 3"), std::string::npos)
        << message;
  }
}

TEST(CsvParse, ReadFailpointSurfacesPositionedError) {
  fp::reset();
  fp::arm("csv.parse.read", fp::Policy::parse("error(2)*1"));
  std::istringstream in("a,b\n1,2\n");
  try {
    parse_csv(in);
    FAIL() << "expected ComputeError";
  } catch (const ComputeError& e) {
    // The injected I/O error is decorated with the physical position —
    // the bare FailpointError never escapes the parser.
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  fp::reset();
}

TEST(CsvParse, TruncateFailpointEndsTheStreamCleanly) {
  fp::reset();
  fp::arm("csv.parse.truncate", fp::Policy::parse("return*1"));
  std::istringstream in("a,b\n1,2\n3,4\n");
  // A short read at the very first line yields an empty (but valid)
  // document rather than a crash or a phantom half-record.
  const auto doc = parse_csv(in);
  EXPECT_TRUE(doc.header.empty());
  EXPECT_TRUE(doc.rows.empty());
  fp::reset();
}

TEST(CsvParse, QuotedNewlinesSpanPhysicalLines) {
  std::istringstream in("name,note\njob1,\"line one\nline two\"\njob2,ok\n");
  const auto doc = parse_csv(in);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][1], "line one\nline two");
  EXPECT_EQ(doc.rows[1][1], "ok");
}

TEST(CsvParse, RejectsUnterminatedQuotedField) {
  std::istringstream in("a,b\n1,\"never closed\n");
  EXPECT_THROW(parse_csv(in), InvalidArgument);
}

TEST(CsvParse, WriterParserRoundTripWithNewlines) {
  // The writer quotes embedded newlines per RFC 4180; the parser must
  // read them back (this round trip used to fail: parse_csv read
  // line-by-line and split the quoted field in two).
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row(std::vector<std::string>{"id", "note", "tag"});
  w.write_row(std::vector<std::string>{"1", "first\nsecond\nthird", "x"});
  w.write_row(std::vector<std::string>{"2", "crlf\r\nstyle", "says \"hi\""});
  w.write_row(std::vector<std::string>{"3", "plain", ","});
  std::istringstream in(os.str());
  const auto doc = parse_csv(in);
  EXPECT_EQ(doc.header, (std::vector<std::string>{"id", "note", "tag"}));
  ASSERT_EQ(doc.rows.size(), 3u);
  EXPECT_EQ(doc.rows[0][1], "first\nsecond\nthird");
  EXPECT_EQ(doc.rows[1][1], "crlf\r\nstyle");
  EXPECT_EQ(doc.rows[1][2], "says \"hi\"");
  EXPECT_EQ(doc.rows[2][2], ",");
}

// The walk reads 1 MiB blocks.  A quoted multi-line record placed at
// every offset around the first block edge, so that the edge falls on
// each of its bytes (a line end, a doubled quote, a CR), reads back whole
// with the right line numbers.
TEST(CsvParse, RecordsStraddlingTheBlockEdgeReadBack) {
  constexpr std::size_t kBlock = std::size_t{1} << 20;
  const std::string straddler = "1,\"p \"\"q\"\",\r\nr\n\"\n";
  for (std::size_t shift = 0; shift <= straddler.size() + 1; ++shift) {
    SCOPED_TRACE("shift " + std::to_string(shift));
    std::string text = "id,note\n0,";
    text.append(kBlock - shift - text.size() - 1, 'x');
    text += '\n';
    text += straddler;
    text += "2,3,4\n";  // ragged: data row 3 starts on line 6
    std::istringstream in(text);
    CsvScanner scanner(in);
    ASSERT_TRUE(scanner.next());
    ASSERT_TRUE(scanner.next());
    EXPECT_EQ(scanner.fields()[1].size(), kBlock - shift - 11);
    ASSERT_TRUE(scanner.next());
    EXPECT_EQ(scanner.line(), 3u);
    EXPECT_EQ(scanner.fields()[1], "p \"q\",\r\nr\n");
    try {
      scanner.next();
      FAIL() << "expected the ragged-row error";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("row 3 (line 6)"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CsvParse, RecordLongerThanABlockGrowsTheBuffer) {
  // 3 MiB in one quoted field that spans many lines, then a plain row.
  std::string note;
  while (note.size() < (std::size_t{3} << 20)) note += "line, \"q\"\n";
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row(std::vector<std::string>{"id", "note"});
  w.write_row(std::vector<std::string>{"1", note});
  w.write_row(std::vector<std::string>{"2", "after"});
  std::istringstream in(os.str());
  const auto doc = parse_csv(in);
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][1], note);
  EXPECT_EQ(doc.rows[1][1], "after");
}

TEST(CsvParse, RoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row(std::vector<std::string>{"metric", "note"});
  w.write_row(std::vector<std::string>{"cpu,user", "say \"hi\""});
  std::istringstream in(os.str());
  const auto doc = parse_csv(in);
  EXPECT_EQ(doc.header[0], "metric");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "cpu,user");
  EXPECT_EQ(doc.rows[0][1], "say \"hi\"");
}

}  // namespace
}  // namespace xdmodml
