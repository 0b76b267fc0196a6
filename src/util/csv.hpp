// Minimal CSV read/write support.
//
// Benches and examples dump their series as CSV so that the paper's figures
// can be re-plotted externally; the reader supports round-tripping those
// files and loading user-provided job summaries.  Fields containing commas,
// quotes or newlines are quoted per RFC 4180, and the parser reads quoted
// embedded newlines back (a record may span physical lines), so everything
// the writer emits round-trips.  Every reader finds its records with
// CsvRecordWalk, which reads the stream a block at a time, and cuts them
// with split_record.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
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

/// One complete record found by CsvRecordWalk: its text as it stands in
/// the input (the line breaks of quoted fields included, the final one
/// excluded) and the physical line it starts on.
struct CsvRecord {
  std::string_view text;
  std::size_t line = 0;
};

/// Finds the records of a CSV stream.  It reads the stream a block
/// (1 MiB) at a time into one buffer it reuses, finds each physical line
/// end with memchr and tracks quote parity per line (an odd count opens
/// or closes a quoted field, so a record may span lines); empty lines
/// outside a record are skipped.  A record still open at the end of a
/// block is carried into the next, and one longer than the buffer grows
/// it.  Failpoint sites, evaluated once per physical line in document
/// order: `csv.parse.read` (injected I/O error, surfaced as ComputeError
/// with the line) and `csv.parse.truncate` (short read — the stream ends
/// early; truncation inside a record is caught by the unterminated-field
/// check).
class CsvRecordWalk {
 public:
  explicit CsvRecordWalk(std::istream& in) : in_(in) {}
  // Records handed out view this object's buffer.
  CsvRecordWalk(const CsvRecordWalk&) = delete;
  CsvRecordWalk& operator=(const CsvRecordWalk&) = delete;

  /// Finds the next complete record in the block held now.  Returns
  /// false when the block holds no further one (call refill()) or the
  /// input has ended; throws ComputeError on an injected read error and
  /// InvalidArgument when the input ends inside a quoted field.
  bool next(CsvRecord& record);

  /// Reads the next block, keeping the record in progress.  Returns
  /// false once the input has ended.  Invalidates every record view
  /// handed out before.
  bool refill();

 private:
  std::istream& in_;
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;            // buffer size: one block, or a record
  std::size_t end_ = 0;            // bytes held
  std::size_t pos_ = 0;            // start of the next physical line
  std::size_t scanned_ = 0;        // [pos_, scanned_) holds no line end
  std::size_t record_start_ = 0;   // of a record open across lines
  std::size_t record_line_ = 0;    // the line that record starts on
  std::size_t line_no_ = 0;        // physical lines consumed
  bool open_ = false;  // inside a quoted field that spans a line break
  bool eof_ = false;   // the stream has no more bytes
  bool done_ = false;  // every record found, or an injected short read
};

/// Cuts one logical record into field views.  A record holding neither
/// a quote nor a CR is cut in place; any other is unescaped (RFC 4180
/// doubled quotes, CR dropped outside quotes) into `storage`, which the
/// views then point into.  Newlines inside quoted fields are kept.
void split_record(std::string_view record, std::string& storage,
                  std::vector<std::string_view>& fields);

/// Holds a data row to the header's width: throws InvalidArgument naming
/// the data row (1-based) *and* the physical line the record starts on
/// (the two diverge once any earlier field contained a quoted newline).
void check_record_width(std::size_t fields, std::size_t width,
                        std::size_t row, std::size_t line);

/// Streaming CSV reader: yields one logical record per `next()`, the
/// header first, through buffers it reuses, so reading a document
/// allocates per record only when a record outgrows them.  Records come
/// from CsvRecordWalk (same failpoint sites) and are cut with
/// split_record; every data row is held to the header's width with
/// check_record_width.
class CsvScanner {
 public:
  explicit CsvScanner(std::istream& in) : walk_(in) {}

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
  CsvRecordWalk walk_;
  std::string unescaped_;  // field text of records with a quote or CR
  std::vector<std::string_view> fields_;
  bool have_header_ = false;
  std::size_t width_ = 0;  // header width
  std::size_t rows_ = 0;
  std::size_t record_line_ = 0;  // where the current record began
};

/// Parses a full CSV document (first row is the header) with CsvScanner,
/// copying every field; the same errors and failpoint sites apply.
CsvDocument parse_csv(std::istream& in);

/// Parses one logical CSV record into fields, unescaping as CsvScanner
/// does.  Newlines inside quoted fields are kept verbatim.
std::vector<std::string> parse_csv_line(const std::string& line);

}  // namespace xdmodml
