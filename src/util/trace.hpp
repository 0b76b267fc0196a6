// RAII timing spans.
//
// `ScopedTimer` is the one sanctioned way to put a wall clock on a code
// path: when the observability toggle (obs::enabled()) is off it reads
// no time source and records nothing, so instrumented paths cost a
// single predicted branch.  When on, the elapsed nanoseconds land in a
// registry histogram.
//
// Spans are meant to be coarse (an SMO solve, a grid cell, a batch
// ingest), never per-element.  See DESIGN.md §9 for the cost rules.
#pragma once

#include <cstdint>

#include "util/metrics.hpp"

namespace xdmodml::obs {

/// Monotonic timestamp in nanoseconds (steady clock).
std::uint64_t now_ns();

/// Times a scope into `hist` (nanoseconds).  With obs::enabled() off at
/// construction this is inert — no clock read, no record.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Stops early and records; returns the elapsed nanoseconds (0 when
  /// the timer was inert).  The destructor then does nothing.
  std::uint64_t stop();

 private:
  Histogram* hist_ = nullptr;  // null once stopped or when inert
  std::uint64_t start_ = 0;
};

}  // namespace xdmodml::obs
