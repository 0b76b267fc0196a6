#include "ml/kernel.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

namespace {

// Integral polynomial degrees up to this bound use exponentiation by
// squaring instead of std::pow, in operator() and in the row sweep.
constexpr double kMaxIntegralDegree = 64.0;

bool integral_degree(double degree) {
  return degree > 0.0 && degree <= kMaxIntegralDegree &&
         degree == std::floor(degree);
}

// What the SIMD sweep fuses onto its dots.  kDot leaves raw dots: linear
// kernels, and fractional polynomial degrees, which finish() completes.
simd::RowKernel row_kernel_of(const Kernel& kernel) {
  simd::RowKernel rk;
  rk.gamma = kernel.gamma;
  rk.coef0 = kernel.coef0;
  if (kernel.type == Kernel::Type::kRbf) {
    rk.kind = simd::RowKernel::Kind::kRbf;
  } else if (kernel.type == Kernel::Type::kPolynomial &&
             integral_degree(kernel.degree)) {
    rk.kind = simd::RowKernel::Kind::kPolyPowi;
    rk.degree = static_cast<std::uint64_t>(kernel.degree);
  }
  return rk;
}

std::shared_ptr<const SupportVectorPool> pack(const Matrix& X) {
  XDMODML_CHECK(!X.empty(), "GramRowEngine requires a non-empty matrix");
  return std::make_shared<const SupportVectorPool>(X.data(), X.cols());
}

}  // namespace

double squared_distance(std::span<const double> a,
                        std::span<const double> b) {
  XDMODML_CHECK(a.size() == b.size(), "kernel operand size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

double dot(std::span<const double> a, std::span<const double> b) {
  XDMODML_CHECK(a.size() == b.size(), "kernel operand size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double powi(double base, std::uint64_t exp) {
  // One shared definition with the SIMD layer so the vectorized
  // polynomial transform is lane-exact against this scalar reference.
  return simd::powi(base, exp);
}

double Kernel::operator()(std::span<const double> a,
                          std::span<const double> b) const {
  switch (type) {
    case Type::kLinear:
      return dot(a, b);
    case Type::kRbf:
      return std::exp(-gamma * squared_distance(a, b));
    case Type::kPolynomial: {
      const double base = gamma * dot(a, b) + coef0;
      if (integral_degree(degree)) {
        return powi(base, static_cast<std::uint64_t>(degree));
      }
      return std::pow(base, degree);
    }
  }
  return 0.0;  // unreachable
}

Kernel Kernel::linear() { return Kernel{Type::kLinear, 0.0, 0.0, 0.0}; }

Kernel Kernel::rbf(double gamma) {
  XDMODML_CHECK(gamma > 0.0, "RBF gamma must be positive");
  return Kernel{Type::kRbf, gamma, 0.0, 0.0};
}

Kernel Kernel::polynomial(double degree, double gamma, double coef0) {
  XDMODML_CHECK(degree > 0.0 && gamma > 0.0,
                "polynomial kernel requires positive degree and gamma");
  return Kernel{Type::kPolynomial, gamma, degree, coef0};
}

std::string Kernel::name() const {
  switch (type) {
    case Type::kLinear:
      return "linear";
    case Type::kRbf:
      return "rbf";
    case Type::kPolynomial:
      return "polynomial";
  }
  return "?";
}

SupportVectorPool::SupportVectorPool(std::span<const double> rows,
                                     std::size_t dims)
    : size_(dims == 0 ? 0 : rows.size() / dims), dims_(dims) {
  XDMODML_CHECK(size_ > 0 && size_ <= 0xffffffffull &&
                    rows.size() == size_ * dims,
                "support-vector pool needs whole rows");
  // Sized exactly, since a model keeps its pool; the last panel's
  // missing rows are zero, with zero norms.
  sq_norms_.assign(simd::panel_rows(size_), 0.0);
  for (std::size_t j = 0; j < size_; ++j) {
    sq_norms_[j] = simd::squared_norm(rows.data() + j * dims, dims);
  }
  panels_.assign(simd::panel_rows(size_) * dims, 0.0);
  std::copy(rows.begin(), rows.end(), panels_.begin());
  simd::pack_panels(panels_.data(), size_, dims);
}

void SupportVectorPool::row(std::size_t j, double* out) const {
  const double* panel =
      panels_.data() + j / simd::kPanelRows * simd::kPanelRows * dims_;
  for (std::size_t f = 0; f < dims_; ++f) {
    out[f] = panel[f * simd::kPanelRows + j % simd::kPanelRows];
  }
}

GramRowEngine::GramRowEngine(const Matrix& X, Kernel kernel)
    : GramRowEngine(pack(X), kernel) {}

GramRowEngine::GramRowEngine(std::shared_ptr<const SupportVectorPool> pool,
                             Kernel kernel)
    : pool_(std::move(pool)),
      kernel_(kernel),
      row_kernel_(row_kernel_of(kernel)) {
  XDMODML_CHECK(pool_ != nullptr, "GramRowEngine requires a pool");
}

double GramRowEngine::probe_sq_norm(const double* x) const {
  return row_kernel_.kind == simd::RowKernel::Kind::kRbf
             ? simd::squared_norm(x, pool_->dims())
             : 0.0;
}

void GramRowEngine::finish(double* out, std::size_t n,
                           std::size_t stride) const {
  if (kernel_.type != Kernel::Type::kPolynomial ||
      row_kernel_.kind == simd::RowKernel::Kind::kPolyPowi) {
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    double& v = out[j * stride];
    v = std::pow(kernel_.gamma * v + kernel_.coef0, kernel_.degree);
  }
}

double GramRowEngine::diagonal(std::size_t i) const {
  XDMODML_CHECK(i < rows(), "GramRowEngine row index out of range");
  const double sq = pool_->sq_norms()[i];
  switch (kernel_.type) {
    case Kernel::Type::kLinear:
      return sq;
    case Kernel::Type::kRbf:
      return 1.0;
    case Kernel::Type::kPolynomial: {
      const double base = kernel_.gamma * sq + kernel_.coef0;
      return row_kernel_.kind == simd::RowKernel::Kind::kPolyPowi
                 ? powi(base, row_kernel_.degree)
                 : std::pow(base, kernel_.degree);
    }
  }
  return 0.0;  // unreachable
}

void GramRowEngine::fill_row(std::size_t i, std::span<double> out) const {
  XDMODML_CHECK(i < rows(), "GramRowEngine row index out of range");
  std::vector<double> x(pool_->dims());
  pool_->row(i, x.data());
  fill_row_for(x, out);
  // Per-row granularity (one fill = n kernel values), so these adds
  // are invisible next to the sweep itself.
  auto& registry = obs::MetricsRegistry::instance();
  static auto& rows_filled = registry.counter("gram_rows.filled");
  static auto& elements = registry.counter("gram_rows.elements");
  rows_filled.inc();
  elements.inc(rows());
}

void GramRowEngine::fill_row_for(std::span<const double> x,
                                 std::span<double> out) const {
  const std::size_t n = rows();
  XDMODML_CHECK(x.size() == pool_->dims(),
                "GramRowEngine probe width mismatch");
  XDMODML_CHECK(out.size() >= n, "GramRowEngine output row too short");
  simd::kernel_row_panels(x.data(), probe_sq_norm(x.data()), pool_->dims(),
                          pool_->panels(), pool_->sq_norms(), n, row_kernel_,
                          out.data());
  finish(out.data(), n, 1);
}

void GramRowEngine::fill_tile(const double* queries_t, const double* x_sq,
                              double* out) const {
  simd::kernel_tile(queries_t, x_sq, pool_->dims(), pool_->panels(),
                    pool_->sq_norms(), rows(), row_kernel_, out);
  for (std::size_t q = 0; q < simd::kTileQueries; ++q) {
    finish(out + q, rows(), simd::kTileQueries);
  }
}

}  // namespace xdmodml::ml
