#include "util/csv.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace xdmodml {

std::size_t CsvDocument::column_index(const std::string& name) const {
  const auto it = std::find(header.begin(), header.end(), name);
  XDMODML_CHECK(it != header.end(), "CSV column not found: " + name);
  return static_cast<std::size_t>(it - header.begin());
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << csv_escape(fields[i]);
  }
  out_ << '\n';
}

void CsvWriter::write_row(const std::vector<double>& fields) {
  std::vector<std::string> text;
  text.reserve(fields.size());
  for (const double f : fields) {
    std::ostringstream os;
    os.precision(12);
    os << f;
    text.push_back(os.str());
  }
  write_row(text);
}

namespace {

// Cuts one logical record into field views.  A record without a quote or
// CR is cut in place.  Any other record is unescaped into `storage`:
// unescaping never lengthens the text, so reserving the record's size up
// front keeps every view taken into `storage` valid.
void split_record(std::string_view record, std::string& storage,
                  std::vector<std::string_view>& fields) {
  fields.clear();
  if (record.find('"') == std::string_view::npos &&
      record.find('\r') == std::string_view::npos) {
    std::size_t start = 0;
    for (auto comma = record.find(','); comma != std::string_view::npos;
         comma = record.find(',', start)) {
      fields.push_back(record.substr(start, comma - start));
      start = comma + 1;
    }
    fields.push_back(record.substr(start));
    return;
  }
  storage.clear();
  storage.reserve(record.size());
  std::size_t field_start = 0;
  const auto close_field = [&] {
    fields.emplace_back(storage.data() + field_start,
                        storage.size() - field_start);
    field_start = storage.size();
  };
  bool in_quotes = false;
  for (std::size_t i = 0; i < record.size(); ++i) {
    const char c = record[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < record.size() && record[i + 1] == '"') {
          storage += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        storage += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      close_field();
    } else if (c != '\r') {  // tolerate CRLF
      storage += c;
    }
  }
  close_field();
}

// An odd number of quote characters flips whether a quoted field is open
// across the line break (RFC 4180 escapes quotes by doubling them, which
// keeps a complete record's count even).
bool odd_quotes(std::string_view text) {
  return text.find('"') != std::string_view::npos &&
         std::count(text.begin(), text.end(), '"') % 2 != 0;
}

}  // namespace

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::string storage;
  std::vector<std::string_view> fields;
  split_record(line, storage, fields);
  return {fields.begin(), fields.end()};
}

bool CsvScanner::next() {
  if (ended_) return false;
  bool open = false;  // inside a quoted field that spans a line break
  bool complete = false;
  while (!complete && std::getline(in_, line_)) {
    ++line_no_;
    // Fault sites for the ingest pipeline: `csv.parse.read` models an
    // I/O error mid-file (surfaced with the exact position), while
    // `csv.parse.truncate` models a short read — the stream simply ends
    // here, and the unterminated-record check below decides whether
    // that is detectable.
    try {
      XDMODML_FAILPOINT("csv.parse.read");
    } catch (const fp::FailpointError& e) {
      throw ComputeError("CSV read failed at line " +
                         std::to_string(line_no_) + ": " + e.what());
    }
    if (fp::triggered("csv.parse.truncate")) break;
    const bool flips = odd_quotes(line_);
    if (open) {
      // Still inside a quoted field: the writer emitted an embedded
      // newline, which getline consumed — restore it and keep reading.
      record_ += '\n';
      record_ += line_;
      open = !flips;
      complete = flips;
      if (complete) split_record(record_, unescaped_, fields_);
    } else if (!line_.empty()) {
      record_line_ = line_no_;
      if (flips) {
        record_ = line_;
        open = true;
      } else {
        split_record(line_, unescaped_, fields_);
        complete = true;
      }
    }
  }
  XDMODML_CHECK(!open,
                "CSV input ends inside an unterminated quoted field "
                "starting at line " +
                    std::to_string(record_line_));
  if (!complete) {
    ended_ = true;
    fields_.clear();
    return false;
  }
  if (!have_header_) {
    have_header_ = true;
    width_ = fields_.size();
    return true;
  }
  ++rows_;
  // The row number counts logical records, the line number physical
  // lines: once any earlier field contained a quoted newline the two
  // diverge, and only the *line* locates the bad record in an editor.
  // record_line_ is the record's first physical line, which is also
  // correct for multi-line records.
  XDMODML_CHECK(fields_.size() == width_,
                "CSV data row " + std::to_string(rows_) + " (line " +
                    std::to_string(record_line_) + ") has " +
                    std::to_string(fields_.size()) +
                    " fields; the header has " + std::to_string(width_));
  return true;
}

CsvDocument parse_csv(std::istream& in) {
  CsvDocument doc;
  CsvScanner scanner(in);
  if (!scanner.next()) return doc;
  doc.header.assign(scanner.fields().begin(), scanner.fields().end());
  while (scanner.next()) {
    doc.rows.emplace_back(scanner.fields().begin(), scanner.fields().end());
  }
  return doc;
}

}  // namespace xdmodml
