#include "util/matrix.hpp"

#include <algorithm>


namespace xdmodml {

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  Matrix m;
  for (const auto& r : rows) m.append_row(r);
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  XDMODML_CHECK(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  XDMODML_CHECK(r < rows_ && c < cols_, "Matrix::at out of range");
  return (*this)(r, c);
}

std::vector<double> Matrix::column(std::size_t c) const {
  XDMODML_CHECK(c < cols_, "Matrix::column out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::append_row(std::span<const double> values) {
  if (rows_ == 0 && cols_ == 0) {
    XDMODML_CHECK(!values.empty(), "cannot append an empty first row");
    cols_ = values.size();
  }
  XDMODML_CHECK(values.size() == cols_, "appended row has wrong width");
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

Matrix Matrix::gather_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    XDMODML_CHECK(indices[i] < rows_, "gather_rows index out of range");
    const auto src = row(indices[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

Matrix Matrix::gather_cols(std::span<const std::size_t> indices) const {
  Matrix out(rows_, indices.size());
  for (std::size_t c = 0; c < indices.size(); ++c) {
    XDMODML_CHECK(indices[c] < cols_, "gather_cols index out of range");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < indices.size(); ++c) {
      out(r, c) = (*this)(r, indices[c]);
    }
  }
  return out;
}

}  // namespace xdmodml
