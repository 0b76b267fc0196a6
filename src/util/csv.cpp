#include "util/csv.hpp"

#include <algorithm>
#include <cstring>
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
  // Unescaping never lengthens the text, so reserving the record's size
  // up front keeps every view taken into `storage` valid.
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

void check_record_width(std::size_t fields, std::size_t width,
                        std::size_t row, std::size_t line) {
  XDMODML_CHECK(fields == width,
                "CSV data row " + std::to_string(row) + " (line " +
                    std::to_string(line) + ") has " + std::to_string(fields) +
                    " fields; the header has " + std::to_string(width));
}

namespace {

constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

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

bool CsvRecordWalk::next(CsvRecord& record) {
  while (!done_) {
    const char* base = buf_.get();
    const std::size_t from = std::max(pos_, scanned_);
    const void* nl =
        from < end_ ? std::memchr(base + from, '\n', end_ - from) : nullptr;
    std::size_t line_end = end_;  // the last line may lack its line end
    if (nl != nullptr) {
      line_end = static_cast<std::size_t>(static_cast<const char*>(nl) - base);
    } else if (!eof_) {
      scanned_ = end_;
      return false;  // the line goes on in the next block
    } else if (pos_ == end_) {
      done_ = true;
      break;
    }
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
    if (fp::triggered("csv.parse.truncate")) {
      done_ = true;
      break;
    }
    const std::size_t line_start = pos_;
    const std::string_view line(base + line_start, line_end - line_start);
    pos_ = nl != nullptr ? line_end + 1 : end_;
    const bool flips = odd_quotes(line);
    if (open_) {
      // Still inside a quoted field: the record runs on through this
      // line, its line breaks kept as the field's embedded newlines.
      open_ = !flips;
      if (flips) {
        record = {std::string_view(base + record_start_,
                                   line_end - record_start_),
                  record_line_};
        return true;
      }
    } else if (!line.empty()) {
      record_line_ = line_no_;
      if (flips) {
        open_ = true;
        record_start_ = line_start;
      } else {
        record = {line, line_no_};
        return true;
      }
    }
  }
  XDMODML_CHECK(!open_,
                "CSV input ends inside an unterminated quoted field "
                "starting at line " +
                    std::to_string(record_line_));
  return false;
}

bool CsvRecordWalk::refill() {
  if (done_) return false;
  // next() stopped at the end of the bytes held, so the buffer is full:
  // keep the unfinished line, or the whole record while a quoted field
  // is open, and read behind it.
  const std::size_t keep = open_ ? record_start_ : pos_;
  const std::size_t tail = end_ - keep;
  if (cap_ == 0) {
    buf_ = std::make_unique_for_overwrite<char[]>(kBlockBytes);
    cap_ = kBlockBytes;
  } else if (tail == cap_) {
    // One record fills the buffer: grow it.
    auto grown = std::make_unique_for_overwrite<char[]>(2 * cap_);
    std::memcpy(grown.get(), buf_.get(), tail);
    buf_ = std::move(grown);
    cap_ *= 2;
  } else {
    std::memmove(buf_.get(), buf_.get() + keep, tail);
  }
  end_ = tail;
  pos_ -= keep;
  scanned_ = std::max(scanned_, keep) - keep;
  record_start_ -= open_ ? keep : 0;
  const std::size_t want = cap_ - end_;
  in_.read(buf_.get() + end_, static_cast<std::streamsize>(want));
  const auto got = static_cast<std::size_t>(in_.gcount());
  end_ += got;
  eof_ = got < want;
  return true;
}

bool CsvScanner::next() {
  CsvRecord record;
  while (!walk_.next(record)) {
    if (!walk_.refill()) {
      fields_.clear();
      return false;
    }
  }
  record_line_ = record.line;
  split_record(record.text, unescaped_, fields_);
  if (!have_header_) {
    have_header_ = true;
    width_ = fields_.size();
    return true;
  }
  ++rows_;
  check_record_width(fields_.size(), width_, rows_, record_line_);
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
