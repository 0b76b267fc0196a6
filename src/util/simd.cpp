#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "util/simd_ops.hpp"

namespace xdmodml::simd {

namespace detail {

namespace {

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void dot_rows_scalar(const double* x, const double* rows, std::size_t d,
                     std::size_t n_rows, double* out) {
  for (std::size_t j = 0; j < n_rows; ++j) {
    out[j] = dot_scalar(x, rows + j * d, d);
  }
}

double squared_norm_scalar(const double* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * x[i];
  return s;
}

void exp_inplace_scalar(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
}

void rbf_row_transform_scalar(double* dots, const double* sq_norms,
                              std::size_t n, double x_sq, double gamma) {
  for (std::size_t j = 0; j < n; ++j) {
    dots[j] = std::exp(-gamma * clamped_sq_dist(x_sq, sq_norms[j], dots[j]));
  }
}

void poly_row_transform_powi_scalar(double* dots, std::size_t n, double gamma,
                                    double coef0, std::uint64_t degree) {
  for (std::size_t j = 0; j < n; ++j) {
    dots[j] = powi(gamma * dots[j] + coef0, degree);
  }
}

// One serving element: query x (features `x_stride` apart) against row
// r of a panel, then the kernel.  Both serving entry points call this,
// so a query's element is one arithmetic sequence wherever it sits.
double panel_element(const double* x, std::size_t x_stride,
                     const double* panel, std::size_t r, std::size_t d,
                     double x_sq, double sq_norm, const RowKernel& kernel) {
  double dot = 0.0;
  for (std::size_t f = 0; f < d; ++f) {
    dot += x[f * x_stride] * panel[f * kPanelRows + r];
  }
  switch (kernel.kind) {
    case RowKernel::Kind::kDot:
      break;
    case RowKernel::Kind::kRbf:
      return std::exp(-kernel.gamma * clamped_sq_dist(x_sq, sq_norm, dot));
    case RowKernel::Kind::kPolyPowi:
      return powi(kernel.gamma * dot + kernel.coef0, kernel.degree);
  }
  return dot;
}

void kernel_row_panels_scalar(const double* x, double x_sq, std::size_t d,
                              const double* panels, const double* sq_norms,
                              std::size_t n_rows, const RowKernel& kernel,
                              double* out) {
  for (std::size_t j = 0; j < n_rows; ++j) {
    const double* panel = panels + (j / kPanelRows) * d * kPanelRows;
    out[j] = panel_element(x, 1, panel, j % kPanelRows, d, x_sq, sq_norms[j],
                           kernel);
  }
}

void kernel_tile_scalar(const double* queries_t, const double* x_sq,
                        std::size_t d, const double* panels,
                        const double* sq_norms, std::size_t n_rows,
                        const RowKernel& kernel, double* out) {
  for (std::size_t j = 0; j < panel_rows(n_rows); ++j) {
    const double* panel = panels + (j / kPanelRows) * d * kPanelRows;
    for (std::size_t q = 0; q < kTileQueries; ++q) {
      out[j * kTileQueries + q] =
          panel_element(queries_t + q, kTileQueries, panel, j % kPanelRows, d,
                        x_sq[q], sq_norms[j], kernel);
    }
  }
}

void ovo_reduce_tile_scalar(const double* block, const OvoMachine* machines,
                            std::size_t count, double* f) {
  for (std::size_t m = 0; m < count; ++m) {
    const OvoMachine& mach = machines[m];
    double acc[kTileQueries];
    for (auto& a : acc) a = -mach.rho;
    for (std::size_t s = 0; s < mach.n; ++s) {
      const double c = mach.coef[s];
      const double* k =
          block + static_cast<std::size_t>(mach.idx[s]) * kTileQueries;
      for (std::size_t q = 0; q < kTileQueries; ++q) acc[q] += c * k[q];
    }
    for (std::size_t q = 0; q < kTileQueries; ++q) {
      f[m * kTileQueries + q] = acc[q];
    }
  }
}

}  // namespace

const Ops* scalar_ops() {
  static constexpr Ops ops{dot_scalar,
                           dot_rows_scalar,
                           squared_norm_scalar,
                           exp_inplace_scalar,
                           rbf_row_transform_scalar,
                           poly_row_transform_powi_scalar,
                           kernel_row_panels_scalar,
                           kernel_tile_scalar,
                           ovo_reduce_tile_scalar};
  return &ops;
}

}  // namespace detail

namespace {

const detail::Ops* ops_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::scalar_ops();
    case Isa::kAvx2:
      return detail::avx2_ops();
  }
  return detail::scalar_ops();  // unreachable
}

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

// The active table, published once.  Loads are relaxed — the tables are
// immutable statics, so any table a reader observes is fully formed.
std::atomic<const detail::Ops*> g_ops{nullptr};
std::atomic<Isa> g_isa{Isa::kScalar};

Isa choose_startup_isa() {
  if (const char* env = std::getenv("XDMODML_SIMD")) {
    if (const auto requested = isa_from_string(env)) {
      if (available(*requested)) return *requested;
      std::fprintf(stderr,
                   "xdmodml: XDMODML_SIMD=%s unavailable on this build/CPU; "
                   "using %s\n",
                   env, std::string(isa_name(detect_best())).c_str());
    }
  }
  return detect_best();
}

const detail::Ops* ops() {
  const detail::Ops* p = g_ops.load(std::memory_order_relaxed);
  if (p != nullptr) return p;
  // Racing first calls all compute the same selection; last store wins
  // with an identical value.
  const Isa isa = choose_startup_isa();
  p = ops_for(isa);
  g_isa.store(isa, std::memory_order_relaxed);
  g_ops.store(p, std::memory_order_relaxed);
  return p;
}

}  // namespace

Isa detect_best() {
  if (detail::avx2_ops() != nullptr && cpu_has_avx2_fma()) return Isa::kAvx2;
  return Isa::kScalar;
}

bool available(Isa isa) {
  if (isa == Isa::kAvx2) {
    return detail::avx2_ops() != nullptr && cpu_has_avx2_fma();
  }
  return true;
}

Isa active() {
  ops();  // force startup selection
  return g_isa.load(std::memory_order_relaxed);
}

bool set_active(Isa isa) {
  if (!available(isa)) return false;
  g_isa.store(isa, std::memory_order_relaxed);
  g_ops.store(ops_for(isa), std::memory_order_relaxed);
  return true;
}

std::string_view isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "?";  // unreachable
}

std::optional<Isa> isa_from_string(std::string_view name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  return std::nullopt;
}

double dot(const double* a, const double* b, std::size_t n) {
  return ops()->dot(a, b, n);
}

void dot_rows(const double* x, const double* rows, std::size_t d,
              std::size_t n_rows, double* out) {
  ops()->dot_rows(x, rows, d, n_rows, out);
}

double squared_norm(const double* x, std::size_t n) {
  return ops()->squared_norm(x, n);
}

void exp_inplace(double* x, std::size_t n) { ops()->exp_inplace(x, n); }

void rbf_row_transform(double* dots, const double* sq_norms, std::size_t n,
                       double x_sq, double gamma) {
  ops()->rbf_row_transform(dots, sq_norms, n, x_sq, gamma);
}

void poly_row_transform_powi(double* dots, std::size_t n, double gamma,
                             double coef0, std::uint64_t degree) {
  ops()->poly_row_transform_powi(dots, n, gamma, coef0, degree);
}

void pack_panels(double* rows, std::size_t n_rows, std::size_t d) {
  // Each 8-row block transposes through a scratch copy of itself: row r,
  // feature f of the block moves to f·8 + r.
  std::vector<double> block(kPanelRows * d);
  for (std::size_t j0 = 0; j0 < n_rows; j0 += kPanelRows) {
    double* panel = rows + j0 * d;
    std::copy(panel, panel + block.size(), block.begin());
    for (std::size_t r = 0; r < kPanelRows; ++r) {
      for (std::size_t f = 0; f < d; ++f) {
        panel[f * kPanelRows + r] = block[r * d + f];
      }
    }
  }
}

void kernel_row_panels(const double* x, double x_sq, std::size_t d,
                       const double* panels, const double* sq_norms,
                       std::size_t n_rows, const RowKernel& kernel,
                       double* out) {
  ops()->kernel_row_panels(x, x_sq, d, panels, sq_norms, n_rows, kernel, out);
}

void kernel_tile(const double* queries_t, const double* x_sq, std::size_t d,
                 const double* panels, const double* sq_norms,
                 std::size_t n_rows, const RowKernel& kernel, double* out) {
  ops()->kernel_tile(queries_t, x_sq, d, panels, sq_norms, n_rows, kernel,
                     out);
}

void ovo_reduce_tile(const double* block, const OvoMachine* machines,
                     std::size_t count, double* f) {
  ops()->ovo_reduce_tile(block, machines, count, f);
}

}  // namespace xdmodml::simd
