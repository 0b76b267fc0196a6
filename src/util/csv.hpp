// Minimal CSV read/write support.
//
// Benches and examples dump their series as CSV so that the paper's figures
// can be re-plotted externally; the reader supports round-tripping those
// files and loading user-provided job summaries.  Fields containing commas,
// quotes or newlines are quoted per RFC 4180, and the parser reads quoted
// embedded newlines back (a record may span physical lines), so everything
// the writer emits round-trips.  Every reader runs on CsvScanner, which
// streams one record at a time and hands its fields out as views.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace xdmodml {

/// Parsed CSV document: a header row plus data rows of strings.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column; throws InvalidArgument when absent.
  std::size_t column_index(const std::string& name) const;
};

/// Streaming CSV writer.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const std::vector<std::string>& fields);
  void write_row(const std::vector<double>& fields);

 private:
  std::ostream& out_;
};

/// Quotes a single field per RFC 4180 if needed.
std::string csv_escape(const std::string& field);

/// Streaming CSV reader: yields one logical record per `next()`, the
/// header first, through buffers it reuses, so reading a document
/// allocates per record only when a record outgrows them.  A record
/// holding neither a quote nor a CR is cut into views of the line as
/// read; only the others are unescaped (RFC 4180 doubled quotes, CR
/// dropped outside quotes) into a side buffer.  Quoted fields may
/// contain embedded newlines.  Data rows whose width does not match the
/// header are rejected with the offending row number *and* the physical
/// line the record starts on (the two diverge once any earlier field
/// contained a quoted newline).  Failpoint sites, evaluated once per
/// physical line: `csv.parse.read` (injected I/O error, surfaced as
/// ComputeError with the line) and `csv.parse.truncate` (short read —
/// the stream ends early; truncation inside a record is caught by the
/// unterminated-field check).
class CsvScanner {
 public:
  explicit CsvScanner(std::istream& in) : in_(in) {}
  // fields() views point into this object's own buffers.
  CsvScanner(const CsvScanner&) = delete;
  CsvScanner& operator=(const CsvScanner&) = delete;

  /// Reads the next record.  Returns false at the end of the input (or
  /// at an injected short read); throws InvalidArgument on a ragged row
  /// or an unterminated quoted field.
  bool next();

  /// The current record's fields, valid until the next call to next().
  std::span<const std::string_view> fields() const { return fields_; }

  /// 1-based data-row number of the current record; 0 for the header.
  std::size_t row() const { return rows_; }

  /// Physical line the current record starts on.
  std::size_t line() const { return record_line_; }

 private:
  std::istream& in_;
  std::string line_;       // the physical line as read
  std::string record_;     // a record spanning several physical lines
  std::string unescaped_;  // field text of records with a quote or CR
  std::vector<std::string_view> fields_;
  bool ended_ = false;  // end of input or an injected short read
  bool have_header_ = false;
  std::size_t width_ = 0;  // header width
  std::size_t rows_ = 0;
  std::size_t line_no_ = 0;      // physical lines consumed
  std::size_t record_line_ = 0;  // where the current record began
};

/// Parses a full CSV document (first row is the header) with CsvScanner,
/// copying every field; the same errors and failpoint sites apply.
CsvDocument parse_csv(std::istream& in);

/// Parses one logical CSV record into fields, unescaping as CsvScanner
/// does.  Newlines inside quoted fields are kept verbatim.
std::vector<std::string> parse_csv_line(const std::string& line);

}  // namespace xdmodml
