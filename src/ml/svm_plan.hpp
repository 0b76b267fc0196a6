// Compiled SVM inference plan: a deduplicated support-vector pool with
// SIMD-batched one-vs-one prediction.
//
// Serving is the traffic-facing hot path (the paper's §IV production
// goal pushes every Uncategorized/NA job through the 20-class RBF
// classifier).  A training row that supports many of the k(k−1)/2
// one-vs-one machines would have K(x, row) recomputed once per machine
// if each machine walked its own rows.  So a model stores each support
// vector once, in one `SupportVectorPool` its machines index into (as
// LIBSVM's multi-class model does), and the plan serves from that pool:
//  * the pool is stored panel-major (8 rows per panel, feature-major
//    inside; see util/simd.hpp) with per-row squared norms precomputed;
//  * prediction computes ONE fused kernel row K(x, pool) through the
//    runtime-dispatched SIMD microkernels (util/simd.hpp; the scalar
//    table serves XDMODML_SIMD=scalar builds/CPUs);
//  * each one-vs-one machine reduces its decision value as a sparse
//    coefficient dot over indices into that shared row;
//  * a batched entry point evaluates a tile of up to 8 queries per pool
//    pass, so the pool is read from memory once per tile, and reduces
//    every machine over the tile's query lanes at once.
//
// A query's kernel row, decision values and so its label and probability
// are the same bits whether it is predicted alone or in any tile lane:
// the tile and the single-query row compute each element in one order,
// and the tile reduce rounds like decision_value (util/simd.hpp).
// Decision values stay within ~1e-10 of the per-machine reference walk
// (`BinarySvm::decision_value`), which the tier1-infer tests and
// bench_svm_infer compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ml/svm.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

/// Support-vector rows stored once for every machine of a model:
/// panel-major (util/simd.hpp), zero-padded to whole panels, with each
/// row's squared norm precomputed.  Immutable; machines and plans share
/// it through a shared_ptr.
class SupportVectorPool {
 public:
  /// Packs `rows` — row-major, `dims` values per row.
  SupportVectorPool(std::span<const double> rows, std::size_t dims);

  std::size_t size() const { return size_; }
  std::size_t dims() const { return dims_; }
  /// Copies row j into out[0, dims()).
  void row(std::size_t j, double* out) const;
  const double* panels() const { return panels_.data(); }
  const double* sq_norms() const { return sq_norms_.data(); }

 private:
  std::size_t size_ = 0;
  std::size_t dims_ = 0;
  std::vector<double> panels_;
  std::vector<double> sq_norms_;
};

/// Immutable compiled inference plan over one model's one-vs-one
/// machines.  SvmClassifier builds it at fit and at load; copies of the
/// classifier share it.  Every method is const and touches no mutable
/// state.
class SvmInferencePlan {
 public:
  /// One machine's view into the pool: decision value
  ///   f(x) = Σ_s coef[s] · krow[sv_pool_idx[s]] − rho.
  struct MachineSlice {
    std::vector<std::uint32_t> sv_pool_idx;  ///< pool row per SV
    std::vector<double> coef;                ///< alpha_i · y_i, aligned
    double rho = 0.0;
    PlattSigmoid sigmoid{};
    bool has_platt = false;
  };

  /// The plan over `machines`, which must be trained, share one kernel
  /// and read one support-vector pool.  Updates the svm.plan.* gauges.
  static std::shared_ptr<const SvmInferencePlan> build(
      std::span<const BinarySvm> machines);

  std::size_t unique_support_vectors() const { return unique_; }
  std::size_t total_support_vectors() const { return total_; }
  /// total / unique — how many machines the average pool row serves.
  double dedup_ratio() const;
  std::size_t dims() const { return dims_; }
  /// Bytes of support-vector payload in the pool (f64 coordinates; the
  /// last panel's zero padding is not counted).
  std::size_t pool_bytes() const;
  const Kernel& kernel() const { return kernel_; }
  std::size_t num_machines() const { return machines_.size(); }
  const MachineSlice& machine(std::size_t idx) const {
    return machines_[idx];
  }

  /// out[j] = k(x, pool_j) for j in [0, unique_support_vectors()).
  /// One fused SIMD sweep; out.size() must be >= the pool size.
  void kernel_row(std::span<const double> x, std::span<double> out) const;

  /// Decision value of machine `idx` against a kernel row produced by
  /// kernel_row for the query: −rho + Σ_s coef[s]·krow[pool index s],
  /// summed in s order.
  double decision_value(std::size_t idx,
                        std::span<const double> krow) const;

  /// Buffers for one tile of up to kTileQueries queries.  Make one per
  /// worker with make_tile() and reuse it for every tile it serves.
  struct Tile {
    std::vector<double> queries_t;  ///< dims × kTileQueries, feature-major
    std::vector<double> x_sq;       ///< squared query norms, per lane
    std::vector<double> krows;      ///< padded pool rows × kTileQueries
  };
  Tile make_tile() const;

  /// Kernel rows of `b` (1..kTileQueries) row-major queries of dims()
  /// doubles into tile.krows, query-lane-major:
  /// tile.krows[j·kTileQueries + q] equals kernel_row(query q)[j] bit for
  /// bit.  Lanes q >= b hold the kernel row of the zero vector.
  void kernel_tile(const double* queries, std::size_t b, Tile& tile) const;

  /// Decision values of every machine for every lane of a kernel_tile:
  /// out[m·kTileQueries + q] equals decision_value(m, row of lane q) bit
  /// for bit.  Reads each machine's coefficients and pool indices once
  /// for the whole tile; `out` holds num_machines() × kTileQueries.
  void decision_values(const Tile& tile, double* out) const;

 private:
  SvmInferencePlan() = default;
  // ovo_ points into machines_, so a plan is never copied.
  SvmInferencePlan(const SvmInferencePlan&) = delete;
  SvmInferencePlan& operator=(const SvmInferencePlan&) = delete;

  /// ‖x‖² where the kernel reads it (RBF), else 0.
  double query_sq_norm(const double* x) const;
  /// Finishes non-integral polynomial kernels, which the SIMD kernels
  /// leave as raw dots: out[j·stride] = (γ·dot + c0)^degree, j < n.
  void finish_pow(double* out, std::size_t n, std::size_t stride) const;

  Kernel kernel_;
  simd::RowKernel row_kernel_;     ///< what the SIMD kernels fuse
  std::shared_ptr<const SupportVectorPool> pool_;
  std::size_t dims_ = 0;
  std::size_t unique_ = 0;
  std::size_t total_ = 0;
  std::vector<MachineSlice> machines_;
  std::vector<simd::OvoMachine> ovo_;  ///< views of machines_ for the reduce
};

}  // namespace xdmodml::ml
