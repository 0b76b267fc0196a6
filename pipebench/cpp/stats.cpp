#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pipebench {

double median(std::span<const double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::vector<double> v(samples.begin(), samples.end());
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps q * n from landing a rounding error above an
  // integer (0.99 * 1000 must be rank 990, not 991).
  const double raw = std::ceil(q * static_cast<double>(n) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(raw, 1.0));
  return std::min(rank, n);
}

double quantile(std::span<const double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  std::vector<double> v(samples.begin(), samples.end());
  const std::size_t idx = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

void WindowRates::add(const OpSample& op) {
  seconds_ += op.seconds;
  jobs_ += op.jobs;
  if (seconds_ >= min_window_s_) {
    rates_.push_back(jobs_ / seconds_);
    last_seconds_ = seconds_;
    last_jobs_ = jobs_;
    seconds_ = 0.0;
    jobs_ = 0.0;
  }
}

std::vector<double> WindowRates::finish() const {
  std::vector<double> rates = rates_;
  if (seconds_ > 0.0) {
    if (rates.empty() || seconds_ >= 0.5 * min_window_s_) {
      rates.push_back(jobs_ / seconds_);
    } else {
      rates.back() = (last_jobs_ + jobs_) / (last_seconds_ + seconds_);
    }
  }
  return rates;
}

}  // namespace pipebench
