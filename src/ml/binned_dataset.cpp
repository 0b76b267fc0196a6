#include "ml/binned_dataset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace xdmodml::ml {

namespace {

/// Bins one column: builds the cut table, assigns codes, and records the
/// per-bin raw min/max.  `sorted` and `cuts` are caller-owned scratch so
/// a range of features reuses the same allocations.
void bin_feature(const Matrix& X, std::size_t f, std::size_t max_bins,
                 std::size_t rows, std::uint8_t* col,
                 std::size_t& num_bins, std::vector<double>& bmin,
                 std::vector<double>& bmax, std::vector<double>& sorted,
                 std::vector<double>& cuts) {
  sorted.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) sorted[i] = X(i, f);
  std::sort(sorted.begin(), sorted.end());

  std::size_t distinct = 1;
  for (std::size_t i = 1; i < rows; ++i) {
    if (sorted[i] != sorted[i - 1]) ++distinct;
  }

  // Cut points are strictly between two adjacent sorted values, so a
  // value's code — the number of cuts below it — is never ambiguous.
  cuts.clear();
  if (distinct <= max_bins) {
    // One bin per distinct value: binned split search degenerates to the
    // exact algorithm (every exact candidate threshold is a bin edge).
    for (std::size_t i = 1; i < rows; ++i) {
      if (sorted[i] != sorted[i - 1]) {
        cuts.push_back(0.5 * (sorted[i - 1] + sorted[i]));
      }
    }
  } else {
    // Quantile cuts at ranks b·n/max_bins, skipping ranks that land
    // inside a run of equal values (a cut there would be meaningless);
    // heavy-tailed SUPReMM metrics get narrow bins where the mass is.
    for (std::size_t b = 1; b < max_bins; ++b) {
      const std::size_t rank = b * rows / max_bins;
      if (rank == 0 || rank >= rows) continue;
      const double lo = sorted[rank - 1];
      const double hi = sorted[rank];
      if (lo == hi) continue;
      const double cut = 0.5 * (lo + hi);
      if (!cuts.empty() && cuts.back() >= cut) continue;
      cuts.push_back(cut);
    }
  }

  num_bins = cuts.size() + 1;
  bmin.assign(num_bins, std::numeric_limits<double>::infinity());
  bmax.assign(num_bins, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < rows; ++i) {
    const double x = X(i, f);
    const auto code = static_cast<std::uint8_t>(
        std::lower_bound(cuts.begin(), cuts.end(), x) - cuts.begin());
    col[i] = code;
    bmin[code] = std::min(bmin[code], x);
    bmax[code] = std::max(bmax[code], x);
  }
}

}  // namespace

void require_finite_features(const Matrix& X) {
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto row = X.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      const double v = row[c];
      if (std::isfinite(v)) continue;
      throw InvalidArgument("non-finite feature column " + std::to_string(c) +
                            " = " +
                            (std::isnan(v) ? "nan" : v > 0 ? "inf" : "-inf") +
                            " in training row " + std::to_string(r));
    }
  }
}

BinnedDataset::BinnedDataset(const Matrix& X, std::size_t max_bins) {
  XDMODML_CHECK(!X.empty(), "binning requires a non-empty matrix");
  require_finite_features(X);
  max_bins = std::clamp<std::size_t>(max_bins, 2, kMaxBins);
  rows_ = X.rows();
  const std::size_t num_features = X.cols();
  bins_.assign(num_features, 1);
  codes_.assign(num_features * rows_, 0);
  bin_min_.resize(num_features);
  bin_max_.resize(num_features);

  // Features are independent: bin them in parallel, with per-range
  // scratch so the sort buffer is reused across a worker's features.
  ThreadPool::global().parallel_for_ranges(
      0, num_features, 1, [&](std::size_t lo, std::size_t hi) {
        std::vector<double> sorted;
        std::vector<double> cuts;
        for (std::size_t f = lo; f < hi; ++f) {
          bin_feature(X, f, max_bins, rows_, codes_.data() + f * rows_,
                      bins_[f], bin_min_[f], bin_max_[f], sorted, cuts);
        }
      });

  max_bins_used_ = *std::max_element(bins_.begin(), bins_.end());

  static auto& builds =
      obs::MetricsRegistry::instance().counter("binned.builds");
  static auto& bytes =
      obs::MetricsRegistry::instance().gauge("binned.bytes_hwm");
  builds.inc();
  bytes.update_max(static_cast<std::int64_t>(memory_bytes()));
}

BinnedDataset BinnedDataset::select_features(
    std::span<const std::size_t> features) const {
  XDMODML_CHECK(!features.empty(), "feature subset must be non-empty");
  BinnedDataset out;
  out.rows_ = rows_;
  out.bins_.reserve(features.size());
  out.codes_.reserve(features.size() * rows_);
  out.bin_min_.reserve(features.size());
  out.bin_max_.reserve(features.size());
  for (const auto f : features) {
    XDMODML_CHECK(f < this->features(), "feature index out of range");
    out.bins_.push_back(bins_[f]);
    const std::uint8_t* col = column(f);
    out.codes_.insert(out.codes_.end(), col, col + rows_);
    out.bin_min_.push_back(bin_min_[f]);
    out.bin_max_.push_back(bin_max_[f]);
    out.max_bins_used_ = std::max(out.max_bins_used_, bins_[f]);
  }
  return out;
}

std::size_t BinnedDataset::memory_bytes() const {
  std::size_t edges = 0;
  for (const auto b : bins_) edges += 2 * b * sizeof(double);
  return codes_.size() * sizeof(std::uint8_t) +
         bins_.size() * sizeof(std::size_t) + edges;
}

void accumulate_class_hist(const BinnedDataset& binned, std::size_t feature,
                           std::span<const std::size_t> samples,
                           std::span<const int> labels,
                           std::size_t num_classes, std::span<double> out) {
  XDMODML_CHECK(out.size() == binned.num_bins(feature) * num_classes,
                "histogram buffer size mismatch");
  const std::uint8_t* col = binned.column(feature);
  for (const auto s : samples) {
    out[col[s] * num_classes + static_cast<std::size_t>(labels[s])] += 1.0;
  }
}

void accumulate_value_hist(const BinnedDataset& binned, std::size_t feature,
                           std::span<const std::size_t> samples,
                           std::span<const double> targets,
                           std::span<double> out) {
  XDMODML_CHECK(out.size() == binned.num_bins(feature) * 3,
                "histogram buffer size mismatch");
  const std::uint8_t* col = binned.column(feature);
  for (const auto s : samples) {
    double* slot = out.data() + col[s] * 3;
    const double v = targets[s];
    slot[0] += 1.0;
    slot[1] += v;
    slot[2] += v * v;
  }
}

}  // namespace xdmodml::ml
