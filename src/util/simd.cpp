#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "util/simd_ops.hpp"

namespace xdmodml::simd {

namespace detail {

namespace {

double squared_norm_scalar(const double* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * x[i];
  return s;
}

void exp_inplace_scalar(double* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
}

// The kernel applied to one element's dot.  Both entry points finish
// through this after summing the dot feature by feature from zero, so a
// query's element is one arithmetic sequence wherever it sits.
template <RowKernel::Kind K>
double finish_dot(double dot, double x_sq, double sq_norm,
                  const RowKernel& kernel) {
  if constexpr (K == RowKernel::Kind::kRbf) {
    return std::exp(-kernel.gamma * clamped_sq_dist(x_sq, sq_norm, dot));
  } else if constexpr (K == RowKernel::Kind::kPolyPowi) {
    return powi(kernel.gamma * dot + kernel.coef0, kernel.degree);
  } else {
    return dot;
  }
}

// Two doubles, element-wise: one SSE2/NEON register where the baseline
// ISA has one, two scalars elsewhere.  Each lane rounds every multiply
// and add alone, so a lane's bits are those of the plain loop.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

// dot[i] = Σ_f a[f·8 + i] · b[f·b_stride] for i < 8, each summed feature
// by feature from zero as 8 independent chains.  (Written as a loop over
// dot[i], GCC 12 vectorizes the feature loop as in-order reductions and
// runs slower than one chain at a time.)
void dots8(const double* a, const double* b, std::size_t b_stride,
           std::size_t d, double* dot) {
  Pair acc[4] = {};
  for (std::size_t f = 0; f < d; ++f) {
    const Pair bf = {b[f * b_stride], b[f * b_stride]};
    for (std::size_t h = 0; h < 4; ++h) {
      Pair v;
      std::memcpy(&v, a + f * 8 + 2 * h, sizeof v);
      acc[h] += bf * v;
    }
  }
  std::memcpy(dot, acc, sizeof acc);
}
static_assert(kPanelRows == 8 && kTileQueries == 8, "dots8 serves both");

// A panel's 8 rows against the query.
template <RowKernel::Kind K>
void row_panels(const double* x, double x_sq, std::size_t d,
                const double* panels, const double* sq_norms,
                std::size_t n_rows, const RowKernel& kernel, double* out) {
  for (std::size_t j0 = 0; j0 < n_rows; j0 += kPanelRows) {
    double dot[kPanelRows];
    dots8(panels + j0 * d, x, 1, d, dot);
    const std::size_t rows = std::min(kPanelRows, n_rows - j0);
    for (std::size_t r = 0; r < rows; ++r) {
      out[j0 + r] = finish_dot<K>(dot[r], x_sq, sq_norms[j0 + r], kernel);
    }
  }
}

// A pool row against the tile's 8 queries.
template <RowKernel::Kind K>
void tile_panels(const double* queries_t, const double* x_sq, std::size_t d,
                 const double* panels, const double* sq_norms,
                 std::size_t n_rows, const RowKernel& kernel, double* out) {
  for (std::size_t j = 0; j < panel_rows(n_rows); ++j) {
    double dot[kTileQueries];
    dots8(queries_t,
          panels + j / kPanelRows * d * kPanelRows + j % kPanelRows,
          kPanelRows, d, dot);
    for (std::size_t q = 0; q < kTileQueries; ++q) {
      out[j * kTileQueries + q] =
          finish_dot<K>(dot[q], x_sq[q], sq_norms[j], kernel);
    }
  }
}

void kernel_row_panels_scalar(const double* x, double x_sq, std::size_t d,
                              const double* panels, const double* sq_norms,
                              std::size_t n_rows, const RowKernel& kernel,
                              double* out) {
  using Kind = RowKernel::Kind;
  switch (kernel.kind) {
    case Kind::kDot:
      return row_panels<Kind::kDot>(x, x_sq, d, panels, sq_norms, n_rows,
                                    kernel, out);
    case Kind::kRbf:
      return row_panels<Kind::kRbf>(x, x_sq, d, panels, sq_norms, n_rows,
                                    kernel, out);
    case Kind::kPolyPowi:
      return row_panels<Kind::kPolyPowi>(x, x_sq, d, panels, sq_norms, n_rows,
                                         kernel, out);
  }
}

void kernel_tile_scalar(const double* queries_t, const double* x_sq,
                        std::size_t d, const double* panels,
                        const double* sq_norms, std::size_t n_rows,
                        const RowKernel& kernel, double* out) {
  using Kind = RowKernel::Kind;
  switch (kernel.kind) {
    case Kind::kDot:
      return tile_panels<Kind::kDot>(queries_t, x_sq, d, panels, sq_norms,
                                     n_rows, kernel, out);
    case Kind::kRbf:
      return tile_panels<Kind::kRbf>(queries_t, x_sq, d, panels, sq_norms,
                                     n_rows, kernel, out);
    case Kind::kPolyPowi:
      return tile_panels<Kind::kPolyPowi>(queries_t, x_sq, d, panels,
                                          sq_norms, n_rows, kernel, out);
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

// SMO's loops as the solver wrote them over its active set; every other
// table must return their bits.
std::ptrdiff_t smo_update_argmax_scalar(double* grad, const double* y,
                                        const double* k_i, const double* k_j,
                                        double s_i, double s_j,
                                        const std::uint8_t* up, std::size_t n,
                                        double* g_max) {
  double best = -std::numeric_limits<double>::infinity();
  std::ptrdiff_t arg = -1;
  for (std::size_t t = 0; t < n; ++t) {
    grad[t] += y[t] * (s_i * k_i[t] + s_j * k_j[t]);
    if (!up[t]) continue;
    const double v = -y[t] * grad[t];
    if (v > best) {
      best = v;
      arg = static_cast<std::ptrdiff_t>(t);
    }
  }
  *g_max = best;
  return arg;
}

std::ptrdiff_t smo_wss2_argmin_scalar(const double* grad, const double* y,
                                      const std::uint8_t* low,
                                      const double* k_i, const double* k_diag,
                                      double k_ii, double g_max, double tau,
                                      std::size_t n, double* g_min) {
  double lowest = std::numeric_limits<double>::infinity();
  double best = std::numeric_limits<double>::infinity();
  std::ptrdiff_t arg = -1;
  for (std::size_t t = 0; t < n; ++t) {
    if (!low[t]) continue;
    const double v = -y[t] * grad[t];
    lowest = std::min(lowest, v);
    const double b = g_max - v;  // violation of the pair (i, t)
    if (b <= 0.0) continue;
    // Curvature along the pair direction, ||φ(x_i) − φ(x_t)||².
    double a = k_ii + k_diag[t] - 2.0 * k_i[t];
    if (a <= 0.0) a = tau;
    const double obj = -(b * b) / a;
    if (obj < best) {
      best = obj;
      arg = static_cast<std::ptrdiff_t>(t);
    }
  }
  *g_min = lowest;
  return arg;
}

}  // namespace

const Ops* scalar_ops() {
  static constexpr Ops ops{squared_norm_scalar,
                           exp_inplace_scalar,
                           kernel_row_panels_scalar,
                           kernel_tile_scalar,
                           ovo_reduce_tile_scalar,
                           smo_update_argmax_scalar,
                           smo_wss2_argmin_scalar};
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

double squared_norm(const double* x, std::size_t n) {
  return ops()->squared_norm(x, n);
}

void exp_inplace(double* x, std::size_t n) { ops()->exp_inplace(x, n); }

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

std::ptrdiff_t smo_update_argmax(double* grad, const double* y,
                                 const double* k_i, const double* k_j,
                                 double s_i, double s_j,
                                 const std::uint8_t* up, std::size_t n,
                                 double* g_max) {
  return ops()->smo_update_argmax(grad, y, k_i, k_j, s_i, s_j, up, n, g_max);
}

std::ptrdiff_t smo_wss2_argmin(const double* grad, const double* y,
                               const std::uint8_t* low, const double* k_i,
                               const double* k_diag, double k_ii,
                               double g_max, double tau, std::size_t n,
                               double* g_min) {
  return ops()->smo_wss2_argmin(grad, y, low, k_i, k_diag, k_ii, g_max, tau,
                                n, g_min);
}

}  // namespace xdmodml::simd
