// Kernel functions for the SVM family.
//
// The paper uses the radial basis kernel with γ = 0.1 and C = 1000 (the
// e1071 defaults it quotes); linear and polynomial kernels are provided
// for completeness and for the test suite's sanity checks.
//
// Two evaluation paths exist:
//  * `Kernel::operator()` — scalar k(a, b): the tests' reference, and the
//    kernel of `BinarySvm::decision_value`'s per-machine walk;
//  * `GramRowEngine` — every kernel row computed in bulk: SMO's Gram rows
//    at training time and the SVM plan's single-query rows at serving
//    time (ml/svm_plan.hpp).  It keeps its rows in a panel-major
//    `SupportVectorPool` with per-row squared norms and fills a row
//    through the fused SIMD sweep in util/simd.hpp (dot, then exp or
//    powi, per element; AVX2/FMA with a vectorized exp where available,
//    scalar elsewhere) on the calling thread.  Fit and serve therefore
//    compute each element with one arithmetic sequence.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/matrix.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

/// Kernel family selector + parameters.
struct Kernel {
  enum class Type { kLinear, kRbf, kPolynomial };

  Type type = Type::kRbf;
  double gamma = 0.1;   ///< RBF / polynomial scale
  double degree = 3.0;  ///< polynomial degree
  double coef0 = 0.0;   ///< polynomial offset

  /// k(a, b); spans must have equal length.
  double operator()(std::span<const double> a,
                    std::span<const double> b) const;

  static Kernel linear();
  static Kernel rbf(double gamma);
  static Kernel polynomial(double degree, double gamma, double coef0);

  std::string name() const;
};

/// Squared Euclidean distance (RBF helper, exposed for tests).
double squared_distance(std::span<const double> a, std::span<const double> b);

/// Dot product.
double dot(std::span<const double> a, std::span<const double> b);

/// base^exp by squaring — the polynomial row path hoists the common
/// integer-degree case out of per-element std::pow.  Exposed for tests.
double powi(double base, std::uint64_t exp);

/// Rows stored once, panel-major (util/simd.hpp), zero-padded to whole
/// panels, with each row's squared norm precomputed.  Immutable; a
/// model's machines, its plan and the plan's engine share one through a
/// shared_ptr.
class SupportVectorPool {
 public:
  /// Packs `rows` — row-major, `dims` values per row.
  SupportVectorPool(std::span<const double> rows, std::size_t dims);

  std::size_t size() const { return size_; }
  std::size_t dims() const { return dims_; }
  /// Copies row j into out[0, dims()).
  void row(std::size_t j, double* out) const;
  const double* panels() const { return panels_.data(); }
  /// panel_rows(size()) norms; the padding rows' are zero.
  const double* sq_norms() const { return sq_norms_.data(); }

 private:
  std::size_t size_ = 0;
  std::size_t dims_ = 0;
  std::vector<double> panels_;
  std::vector<double> sq_norms_;
};

/// Kernel-row generator over the rows of a SupportVectorPool.
///
/// `fill_row` and `fill_row_for` compute a full kernel row with one
/// fused sweep over the panels (simd::kernel_row_panels) instead of n
/// scalar `Kernel::operator()` calls that each re-derive both norms.
/// A row is one sweep on the calling thread; the one-vs-one fit already
/// runs its machines on the pool's workers.  The engine is immutable
/// after construction and safe to share across threads.
class GramRowEngine {
 public:
  /// Packs a copy of X's rows into a pool of its own.
  GramRowEngine(const Matrix& X, Kernel kernel);
  /// Serves the rows of a shared pool (a model's support vectors).
  GramRowEngine(std::shared_ptr<const SupportVectorPool> pool, Kernel kernel);

  /// out[j] = k(x_i, x_j) for j in [0, rows()); out.size() must be >= rows().
  /// Counts into gram_rows.filled / gram_rows.elements.
  void fill_row(std::size_t i, std::span<double> out) const;

  /// Same sweep for an arbitrary probe vector x (‖x‖² derived once):
  /// out[j] = k(x, x_j).  x.size() must equal the pool's dims.
  void fill_row_for(std::span<const double> x, std::span<double> out) const;

  /// simd::kTileQueries probes at once, bit-identical per element to
  /// fill_row_for: `queries_t` feature-major, `x_sq` each probe's
  /// probe_sq_norm, out[j·kTileQueries + q] for j < panel_rows(rows()).
  void fill_tile(const double* queries_t, const double* x_sq,
                 double* out) const;

  /// ‖x‖² as the sweep reads it: RBF kernels only, 0 for the others.
  double probe_sq_norm(const double* x) const;

  /// k(x_i, x_i) in O(1) from the cached norms (RBF diagonal is exactly 1).
  double diagonal(std::size_t i) const;

  std::size_t rows() const { return pool_->size(); }
  const Kernel& kernel() const { return kernel_; }
  const SupportVectorPool& pool() const { return *pool_; }

  /// Cached per-row squared norms, rows() of them.
  std::span<const double> squared_norms() const {
    return {pool_->sq_norms(), rows()};
  }

 private:
  /// Finishes fractional-degree polynomial kernels, which the SIMD
  /// sweep leaves as raw dots: out[j·stride] = (γ·dot + c0)^degree.
  void finish(double* out, std::size_t n, std::size_t stride) const;

  std::shared_ptr<const SupportVectorPool> pool_;
  Kernel kernel_;
  simd::RowKernel row_kernel_;  // what the SIMD sweep fuses
};

}  // namespace xdmodml::ml
