// SIMD microkernel layer with runtime CPU dispatch.
//
// Every kernel row the library computes in bulk goes through the fused
// panel kernels below: SMO's Gram rows at training time and the SVM
// plan's rows at serving time (ml::GramRowEngine, ml/kernel.hpp), and
// the plan's batched query tiles (ml/svm_plan.hpp).  Each element is a
// dot product accumulated feature by feature against a panel-major row
// pool, then the kernel transform (exp / powi) on the same registers.
// This header exposes:
//
//   * squared_norm      — FMA-chained reduction over a contiguous row;
//   * exp_inplace       — vectorized exp (Cephes-style polynomial);
//   * kernel_row_panels — one query against a panel-major pool;
//   * kernel_tile       — kTileQueries queries against the pool at once;
//   * ovo_reduce_tile   — every one-vs-one machine over a tile;
//   * smo_update_argmax — SMO's gradient step fused with the next I_up
//                         maximum (ml/smo.cpp);
//   * smo_wss2_argmin   — SMO's second-order partner search and g_min.
//
// Each call dispatches through a function-pointer table selected ONCE at
// startup from cpuid (AVX2 + FMA today; a scalar fallback always exists,
// and new ISA targets slot in as another table — see DESIGN.md).  The
// choice can be overridden for A/B testing:
//
//   * environment: XDMODML_SIMD=scalar|avx2|auto (read at first use);
//   * programmatically: set_active(Isa) — used by the equivalence tests
//     and the bench binaries to time both paths in one process.
//
// Building the AVX2 translation unit is controlled by the XDMODML_SIMD
// CMake option (default ON where the compiler supports -mavx2 -mfma);
// with it OFF the scalar table is the only candidate and behaviour is
// identical everywhere.
//
// Accuracy contract for the vectorized exp (AVX2 path):
//   * |result − std::exp(x)| ≤ a few ULP for x in [−708.39, 709.0];
//   * exactly +0.0 for x < −708.396 (std::exp returns subnormals down to
//     ≈ −745; this path flushes the whole subnormal band to zero, which
//     is the correct limit for RBF arguments −γ‖x−y‖² → −∞);
//   * +inf for x > 709.0 (std::exp stays finite up to ≈ 709.78; RBF
//     arguments are never positive so the band is unreachable there);
//   * NaN → NaN, +inf → +inf, −inf → +0.0, ±0.0 → 1.0 exactly.
// The scalar table uses std::exp and has no such edges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace xdmodml::simd {

/// Instruction-set targets, in preference order.
enum class Isa { kScalar, kAvx2 };

/// Largest vector lane count any target uses (doubles per register).
/// Tests exercise remainder handling with sizes not divisible by this.
inline constexpr std::size_t kMaxLanes = 4;

/// Round-off in the norm expansion ‖x−y‖² = ‖x‖² + ‖y‖² − 2·x·y can push
/// the result a hair negative for near-identical rows.  Every transform
/// path — scalar and SIMD alike — clamps through this one helper (the
/// AVX2 kernel mirrors it lane-wise with max(0, ·)) so the two cannot
/// drift.  A NaN (an overflowed expansion reading inf − inf) passes
/// through, as it does AVX2's max, so an overflowed query gives a NaN
/// kernel value on both tables rather than distance 0 on one.
inline double clamped_sq_dist(double x_sq, double y_sq, double xy) {
  const double d2 = x_sq + y_sq - 2.0 * xy;
  return d2 < 0.0 ? 0.0 : d2;
}

/// base^exp by squaring — shared by the scalar kernel paths and the
/// per-lane SIMD polynomial transform (same multiplication order, so the
/// two agree bit-for-bit on equal inputs).
inline double powi(double base, std::uint64_t exp) {
  double result = 1.0;
  double term = base;
  while (exp > 0) {
    if (exp & 1u) result *= term;
    term *= term;
    exp >>= 1u;
  }
  return result;
}

/// Best ISA this build AND this CPU support (cpuid-based, cached).
Isa detect_best();

/// True when `isa` is both compiled in and supported by the CPU.
bool available(Isa isa);

/// The active ISA.  Selected once on first use: XDMODML_SIMD if set and
/// available, otherwise detect_best().
Isa active();

/// Forces the active ISA (A/B testing, equivalence tests).  Returns
/// false — leaving the selection unchanged — if `isa` is unavailable.
bool set_active(Isa isa);

/// "scalar" / "avx2".
std::string_view isa_name(Isa isa);

/// Parses an XDMODML_SIMD value ("scalar", "avx2"); nullopt for "auto"
/// or anything unrecognized.  Exposed for tests.
std::optional<Isa> isa_from_string(std::string_view name);

// ---- microkernels (dispatch through the active ISA) -----------------

/// Σ x[i]².
double squared_norm(const double* x, std::size_t n);

/// x[i] = exp(x[i]) for i in [0, n) — see the accuracy contract above.
void exp_inplace(double* x, std::size_t n);

// ---- kernel rows: panel-major pool, query tiles, batched reduce -------
//
// A row pool (ml::SupportVectorPool, ml/kernel.hpp) is stored
// panel-major: panel p holds pool rows [8p, 8p + 8) feature-major, so
// element (row 8p + r, feature f) sits at panels[(p·d + f)·8 + r], and
// the last panel is zero-padded (as is the row-norm array) to whole
// panels.  Every element k(x_q, row_j) is computed the same way by both
// entry points below — the dot accumulates feature by feature from 0
// (one fused multiply-add per feature on AVX2; a multiply then an add
// on the scalar table), then the kernel transform maps it — so a query
// gets the same bits alone or in any tile position.

/// Pool rows per panel.
inline constexpr std::size_t kPanelRows = 8;

/// `rows` rounded up to whole panels.
inline constexpr std::size_t panel_rows(std::size_t rows) {
  return (rows + kPanelRows - 1) / kPanelRows * kPanelRows;
}

/// Rearranges n_rows row-major rows of d features into the panel-major
/// layout, in place: `rows` holds panel_rows(n_rows) rows, zero after
/// the last real one, and panel p takes exactly the bytes of rows
/// [8p, 8p + 8).  Not dispatched (pure data movement).
void pack_panels(double* rows, std::size_t n_rows, std::size_t d);

/// Queries per tile and per batched reduce.  Tile blocks are
/// query-lane-major: element (row j, query q) at block[j·kTileQueries + q].
inline constexpr std::size_t kTileQueries = 8;

/// The transform fused onto a tile's dot products.  kDot leaves raw
/// inner products (linear kernels; non-integral polynomial degrees,
/// which the caller finishes with std::pow).
struct RowKernel {
  enum class Kind { kDot, kRbf, kPolyPowi };
  Kind kind = Kind::kDot;
  double gamma = 0.0;
  double coef0 = 0.0;
  std::uint64_t degree = 0;  ///< kPolyPowi only
};

/// One query against a panel-major pool of n_rows rows:
///   out[j] = k(x, row j)  for j in [0, n_rows)
/// with k per `kernel`: kRbf maps exp(−γ·clamped_sq_dist(x_sq,
/// sq_norms[j], dot)), kPolyPowi powi(γ·dot + coef0, degree).  `x_sq`
/// (‖x‖²) is read by kRbf only.
void kernel_row_panels(const double* x, double x_sq, std::size_t d,
                       const double* panels, const double* sq_norms,
                       std::size_t n_rows, const RowKernel& kernel,
                       double* out);

/// kTileQueries queries against the same pool, bit-identical per element
/// to kernel_row_panels.  `queries_t` holds the block feature-major
/// (queries_t[f·kTileQueries + q]) and `x_sq` their squared norms; pad
/// unused lanes with zero queries.  Writes every padded pool row:
/// out[j·kTileQueries + q] for j < n_rows rounded up to kPanelRows.
void kernel_tile(const double* queries_t, const double* x_sq, std::size_t d,
                 const double* panels, const double* sq_norms,
                 std::size_t n_rows, const RowKernel& kernel, double* out);

/// One one-vs-one machine: `n` support vectors at pool rows `idx` with
/// coefficients `coef`, and its offset `rho`.
struct OvoMachine {
  const std::uint32_t* idx = nullptr;
  const double* coef = nullptr;
  std::size_t n = 0;
  double rho = 0.0;
};

/// Every machine over a kernel_tile block, for every lane q:
///   f[m·kTileQueries + q] = −rho_m + Σ_s coef_m[s] · block[idx_m[s]·kTileQueries + q]
/// summed in s order with each product rounded before its add — the
/// order of a scalar `f += coef[s] * krow[idx[s]]` loop, so each lane
/// equals that single-query reduction bit for bit.  Machines' chains are
/// independent, so an ISA may advance several at once.
void ovo_reduce_tile(const double* block, const OvoMachine* machines,
                     std::size_t count, double* f);

// ---- SMO working-set passes (ml/smo.cpp) -----------------------------
//
// The solver's two per-iteration sweeps over variables [0, n) while no
// variable is shrunk.  y[t] is the label as ±1.0 and up[t] / low[t]
// (0 or 1) flag membership of I_up / I_low.  Each element is computed
// with the scalar loop's operations in its order, rounding each one, and
// each lane keeps the loop's strict comparison; the lanes then reduce to
// the best value, ties to the lowest index, and return that index's own
// value — the element the sequential loop keeps, signed zeros included.
// So every table returns the scalar table's bits.

/// grad[t] += y[t]·(s_i·k_i[t] + s_j·k_j[t]) for every t, then the
/// maximum of −y[t]·grad[t] over the t with up[t] set.  Returns the first
/// index attaining it and stores the maximum in *g_max (−1 and −inf when
/// no flag is set).
std::ptrdiff_t smo_update_argmax(double* grad, const double* y,
                                 const double* k_i, const double* k_j,
                                 double s_i, double s_j,
                                 const std::uint8_t* up, std::size_t n,
                                 double* g_max);

/// The WSS2 partner of a variable i (Fan, Chen and Lin, JMLR 6, 2005)
/// over the t with low[t] set: with v = −y[t]·grad[t] and b = g_max − v,
/// the first t minimising −(b·b)/a among those with b > 0, where
/// a = (k_ii + k_diag[t]) − 2·k_i[t], raised to `tau` when a ≤ 0.  Stores
/// the minimum of v over the flagged t in *g_min.  Returns −1 when no t
/// qualifies; *g_min is +inf when no flag is set.
std::ptrdiff_t smo_wss2_argmin(const double* grad, const double* y,
                               const std::uint8_t* low, const double* k_i,
                               const double* k_diag, double k_ii,
                               double g_max, double tau, std::size_t n,
                               double* g_min);

}  // namespace xdmodml::simd
