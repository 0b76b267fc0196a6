// Strict number scanner shared by the text input boundaries: the job CSV
// reader (supremm/summary_io) and the model-stream reader (ml/model_io).
//
// Both forms wrap std::from_chars over a std::string_view and accept a
// token only when the whole of it is consumed, so leading whitespace, a
// leading '+', trailing bytes and hex floats ("0x1p3" scans as "0" and
// stops) are all rejected, as is a value outside the target type's
// range.  Subnormal doubles are in range; "nan" and "inf" are accepted,
// and a boundary that must not see them (model streams) checks
// std::isfinite itself.
#pragma once

#include <charconv>
#include <concepts>
#include <optional>
#include <string_view>
#include <system_error>

#if !defined(__cpp_lib_to_chars) || __cpp_lib_to_chars < 201611L
#error "xdmodml needs floating-point std::from_chars (GCC 12 or later)"
#endif

namespace xdmodml {

/// Parses all of `text` in std::chars_format::general; nullopt when the
/// token is empty, malformed, not fully consumed or out of range.
inline std::optional<double> scan_double(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Parses all of `text` as a base-10 integer of type `Int`; nullopt when
/// the token is empty, malformed, not fully consumed or does not fit
/// `Int` (so "-1" never reads as an unsigned value).
template <std::integral Int>
std::optional<Int> scan_int(std::string_view text) {
  Int value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace xdmodml
