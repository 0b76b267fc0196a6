// A minimal dense row-major matrix of doubles.
//
// Feature matrices in this library are tall and skinny (10^4–10^6 rows,
// ~30 columns), accessed row-at-a-time by every classifier, so row-major
// contiguous storage with `row()` returning a std::span is the right shape.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace xdmodml {

/// Dense row-major matrix.  Rows are contiguous; `row(i)` is zero-copy.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, value-initialized to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer data (rows of equal length).
  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access (throws InvalidArgument).
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  /// Copies column c.
  std::vector<double> column(std::size_t c) const;

  /// Appends a row (must match cols(), or sets cols() when empty).
  void append_row(std::span<const double> values);

  /// Returns a new matrix containing the given rows, in order.
  Matrix gather_rows(std::span<const std::size_t> indices) const;

  /// Returns a new matrix containing the given columns, in order.
  Matrix gather_cols(std::span<const std::size_t> indices) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace xdmodml
