#include "util/trace.hpp"

#include <chrono>

namespace xdmodml::obs {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedTimer::ScopedTimer(Histogram& hist) {
  if (!enabled()) return;  // inert: no clock read, nothing to record
  hist_ = &hist;
  start_ = now_ns();
}

std::uint64_t ScopedTimer::stop() {
  if (hist_ == nullptr) return 0;
  const std::uint64_t elapsed = now_ns() - start_;
  hist_->record(elapsed);
  hist_ = nullptr;
  return elapsed;
}

ScopedTimer::~ScopedTimer() { stop(); }

}  // namespace xdmodml::obs
