// Quantile-binned feature codes for histogram-based tree training.
//
// The tree engine's exact split search re-sorts the samples reaching a
// node for every candidate feature — O(n log n) per feature per node.
// `BinnedDataset` pays that sort ONCE per feature for the whole matrix:
// each feature is quantile-binned into at most 256 bins and stored as
// column-major `uint8` codes.  A tree node then scores a feature by
// accumulating a per-bin histogram in one O(n) pass and scanning the
// (≤256) bins, and a forest bins once and trains every tree — and every
// CV fold, since folds are row subsets of the same matrix — against the
// same read-only code table.  This is the `SharedGramCache` idea applied
// to the forest path: precompute once, share across fits.
//
// Threshold reconstruction: alongside the codes we keep, per bin, the
// smallest and largest raw value that was binned into it.  A split
// between bins `lo < hi` materializes as the midpoint of
// `bin_max(lo)` and `bin_min(hi)` — when every distinct value gets its
// own bin this is bit-identical to the exact arm's midpoint between
// consecutive distinct values, which is what the binned-vs-exact
// equivalence tests lock down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/matrix.hpp"

namespace xdmodml::ml {

/// Throws InvalidArgument naming the first NaN or infinite entry of a
/// training matrix, as "non-finite feature column <c> = nan|inf|-inf in
/// training row <r>".  Trees need it on both split arms: the binning
/// sort has no order for NaN, and the exact arm sends a NaN left while a
/// NaN query descends right.
void require_finite_features(const Matrix& X);

/// Immutable quantile-binned view of a feature matrix.  Construction is
/// the only mutating phase; afterwards the object is safe to share
/// read-only across threads (forest training reads it concurrently).
class BinnedDataset {
 public:
  /// Codes are uint8, so at most 256 bins per feature.
  static constexpr std::size_t kMaxBins = 256;

  /// Bins every column of X.  `max_bins` caps the bins per feature
  /// (clamped to kMaxBins); features with fewer distinct values get one
  /// bin per distinct value, which makes binned split search exact.
  /// Throws InvalidArgument on a non-finite entry
  /// (require_finite_features).
  explicit BinnedDataset(const Matrix& X, std::size_t max_bins = kMaxBins);

  std::size_t rows() const { return rows_; }
  std::size_t features() const { return bins_.size(); }

  /// Bins actually used by feature f (>= 1; 1 means constant).
  std::size_t num_bins(std::size_t f) const { return bins_[f]; }

  /// Largest num_bins over all features (sizing for histogram buffers).
  std::size_t max_bins_used() const { return max_bins_used_; }

  /// Column-major code column for feature f (length rows()).
  const std::uint8_t* column(std::size_t f) const {
    return codes_.data() + f * rows_;
  }

  std::uint8_t code(std::size_t row, std::size_t f) const {
    return codes_[f * rows_ + row];
  }

  /// Smallest / largest raw value binned into bin b of feature f.
  double bin_min(std::size_t f, std::size_t b) const {
    return bin_min_[f][b];
  }
  double bin_max(std::size_t f, std::size_t b) const {
    return bin_max_[f][b];
  }

  /// Split threshold between non-empty bins lo < hi of feature f: the
  /// midpoint of the last value of lo and the first value of hi.  Every
  /// value coded <= lo compares <= threshold and every value coded >= hi
  /// compares > threshold, so `x <= t` at predict time reproduces the
  /// training-time code partition.
  double split_threshold(std::size_t f, std::size_t lo, std::size_t hi) const {
    return 0.5 * (bin_max_[f][lo] + bin_min_[f][hi]);
  }

  /// Cheap column-subset copy (no re-sorting / re-quantiling): the
  /// attribute-sweep path bins the full table once and derives each
  /// feature subset from the codes.
  BinnedDataset select_features(std::span<const std::size_t> features) const;

  /// Approximate resident size of the code table and bin edges.
  std::size_t memory_bytes() const;

 private:
  BinnedDataset() = default;

  std::size_t rows_ = 0;
  std::size_t max_bins_used_ = 1;
  std::vector<std::size_t> bins_;            // per feature
  std::vector<std::uint8_t> codes_;          // column-major: f * rows_ + i
  std::vector<std::vector<double>> bin_min_; // per feature, per bin
  std::vector<std::vector<double>> bin_max_;
};

/// Dense class-count histogram of one feature over a sample multiset:
/// out[bin * num_classes + c] accumulates how many of `samples` (row
/// indices into the binned matrix; duplicates allowed) fall into `bin`
/// with label c.  `out` must be zeroed and sized
/// num_bins(feature) * num_classes.  Counts are integral, so histograms
/// over disjoint sample sets add exactly: hist(parent) == hist(left) +
/// hist(right) bin-for-bin — the identity behind the subtraction trick.
void accumulate_class_hist(const BinnedDataset& binned, std::size_t feature,
                           std::span<const std::size_t> samples,
                           std::span<const int> labels,
                           std::size_t num_classes, std::span<double> out);

/// Regression variant: out[bin * 3 + {0,1,2}] accumulates count, sum and
/// sum of squares of `targets` per bin.  `out` must be zeroed and sized
/// num_bins(feature) * 3.
void accumulate_value_hist(const BinnedDataset& binned, std::size_t feature,
                           std::span<const std::size_t> samples,
                           std::span<const double> targets,
                           std::span<double> out);

}  // namespace xdmodml::ml
