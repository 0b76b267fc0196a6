#include "ml/model_io.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "util/error.hpp"
#include "util/number_scan.hpp"

namespace xdmodml::ml::io {

void write_tag(std::ostream& out, const std::string& tag) {
  out << tag << '\n';
}

void write_scalar(std::ostream& out, const std::string& tag, double value) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << tag << ' ' << value << '\n';
}

void write_scalar(std::ostream& out, const std::string& tag,
                  std::int64_t value) {
  out << tag << ' ' << value << '\n';
}

void write_string(std::ostream& out, const std::string& tag,
                  const std::string& value) {
  XDMODML_CHECK(value.find_first_of(" \t\n") == std::string::npos,
                "serialized strings must be token-safe");
  out << tag << ' ' << value << '\n';
}

void write_vector(std::ostream& out, const std::string& tag,
                  std::span<const double> values) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << tag << ' ' << values.size();
  for (const double v : values) out << ' ' << v;
  out << '\n';
}

void write_index_vector(std::ostream& out, const std::string& tag,
                        std::span<const std::uint32_t> values) {
  out << tag << ' ' << values.size();
  for (const std::uint32_t v : values) out << ' ' << v;
  out << '\n';
}

std::string_view TokenReader::next_token() {
  if (!(in_ >> token_)) {
    throw InvalidArgument("model stream truncated");
  }
  return token_;
}

std::string TokenReader::read_tag() { return std::string(next_token()); }

void TokenReader::expect(const std::string& tag) {
  const auto token = next_token();
  XDMODML_CHECK(token == tag, "model stream: expected '" + tag + "', got '" +
                                  std::string(token) + "'");
}

double TokenReader::read_double(const std::string& tag) {
  expect(tag);
  const auto v = scan_double(next_token());
  XDMODML_CHECK(v && std::isfinite(*v),
                "model stream: bad double for tag " + tag);
  return *v;
}

std::int64_t TokenReader::read_int(const std::string& tag) {
  expect(tag);
  const auto v = scan_int<std::int64_t>(next_token());
  XDMODML_CHECK(v.has_value(), "model stream: bad integer for tag " + tag);
  return *v;
}

int TokenReader::read_count(const std::string& tag, int min) {
  const auto v = read_int(tag);
  XDMODML_CHECK(v >= min && v <= std::numeric_limits<int>::max(),
                "model stream: " + tag + " out of range");
  return static_cast<int>(v);
}

std::string TokenReader::read_string(const std::string& tag) {
  expect(tag);
  return std::string(next_token());
}

std::int64_t TokenReader::read_length(const std::string& tag) {
  expect(tag);
  const auto n = scan_int<std::int64_t>(next_token());
  XDMODML_CHECK(n && *n >= 0,
                "model stream: bad vector length for tag " + tag);
  return *n;
}

namespace {
// A vector's element count comes from the stream, so it sizes only a
// bounded reservation: a corrupt count then fails as a truncated stream
// instead of allocating whatever the count claims.
constexpr std::int64_t kMaxReserve = 1 << 16;
}  // namespace

std::vector<std::uint32_t> TokenReader::read_index_vector(
    const std::string& tag) {
  const auto n = read_length(tag);
  std::vector<std::uint32_t> values;
  values.reserve(static_cast<std::size_t>(std::min(n, kMaxReserve)));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto v = scan_int<std::uint32_t>(next_token());
    XDMODML_CHECK(v.has_value(),
                  "model stream: bad index element for tag " + tag);
    values.push_back(*v);
  }
  return values;
}

std::vector<double> TokenReader::read_vector(const std::string& tag) {
  const auto n = read_length(tag);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(std::min(n, kMaxReserve)));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto v = scan_double(next_token());
    XDMODML_CHECK(v && std::isfinite(*v),
                  "model stream: bad vector element for tag " + tag);
    values.push_back(*v);
  }
  return values;
}

}  // namespace xdmodml::ml::io
