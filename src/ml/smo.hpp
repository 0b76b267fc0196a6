// Sequential Minimal Optimization solver for SVM dual problems.
//
// Solves   min_a  1/2 aᵀQa + pᵀa
//          s.t.   yᵀa = 0,  0 <= a_i <= C_i
//
// with Q_ij = y_i y_j k(x_i, x_j), using maximal-violating-pair working-set
// selection (Keerthi et al.; the LIBSVM first-order rule).  Both C-SVC and
// ε-SVR reduce to this form — SVR by doubling the variables, exactly as in
// LIBSVM.  Kernel rows are memoised in a bounded LRU cache so the solver
// handles training sets whose full Gram matrix would not fit in memory.
//
// The solver also implements LIBSVM's shrinking heuristic: every
// `shrink_interval` iterations, variables clamped at a bound whose KKT
// violation lies strictly outside the current (m(α), M(α)) window are
// removed from the active set, so late-stage selection and gradient
// maintenance touch only the variables that can still move.  A second
// gradient vector G_bar tracks the contribution of upper-bound variables,
// which lets the full gradient be reconstructed exactly before the final
// convergence check (and whenever the active set optimizes out early).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "ml/kernel.hpp"
#include "util/matrix.hpp"

namespace xdmodml::ml {

/// Inputs to the SMO solver.  `kernel_row(i)` must return the full i-th row
/// of the *kernel* matrix k(x_i, x_j) for j in [0, n) — the solver applies
/// the y_i y_j signs itself.
struct SmoProblem {
  std::size_t n = 0;
  std::function<void(std::size_t i, std::span<double> out)> kernel_row;
  /// k(x_i, x_i), read once per variable; required like `kernel_row`.
  std::function<double(std::size_t i)> kernel_diag;
  std::span<const double> p;     ///< linear term, size n
  std::span<const signed char> y;  ///< ±1 labels, size n
  std::span<const double> c;     ///< per-variable upper bounds, size n
};

/// Solver knobs.
struct SmoConfig {
  double tolerance = 1e-3;      ///< KKT violation tolerance
  std::size_t max_iterations = 10'000'000;
  std::size_t cache_rows = 4096;  ///< LRU capacity (rows of length n)
  bool shrinking = true;        ///< LIBSVM-style active-set shrinking
  /// Iterations between shrink passes; 0 = min(n, 1000) (LIBSVM default).
  std::size_t shrink_interval = 0;
};

/// Solver output.
struct SmoResult {
  std::vector<double> alpha;
  double rho = 0.0;  ///< decision offset; f(x) = Σ y_i a_i k(x_i,x) - rho
  std::size_t iterations = 0;
  bool converged = false;
  double objective = 0.0;
};

/// Runs SMO to convergence (or the iteration cap).
SmoResult solve_smo(const SmoProblem& problem, const SmoConfig& config = {});

/// Bounded LRU cache of kernel rows, shared by solver and tests.
/// Single-threaded; each solve_smo call owns one.
class KernelRowCache {
 public:
  KernelRowCache(std::size_t n, std::size_t capacity,
                 std::function<void(std::size_t, std::span<double>)> compute);

  /// Returns the row, computing and caching it if absent.
  std::span<const double> row(std::size_t i);

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  std::size_t n_;
  std::size_t capacity_;
  std::function<void(std::size_t, std::span<double>)> compute_;
  std::list<std::size_t> lru_;  // most recent at front
  struct Entry {
    std::vector<double> data;
    std::list<std::size_t>::iterator lru_it;
  };
  std::unordered_map<std::size_t, Entry> rows_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// Thread-safe cache of *full-matrix* kernel rows, backed by a
/// GramRowEngine.  One instance is shared by every one-vs-one sub-problem
/// of a multiclass fit — and, through `SvmClassifier::fit_shared`, by
/// every CV fold and grid cell of a tuning sweep: each row of the full
/// Gram matrix is computed once (vectorized, norm-cached) and then sliced
/// by every consumer whose training subset contains that sample, instead
/// of each fit re-deriving kernels over its private row subset.  Rows are
/// stored as float — half the bytes of a double row, so the byte budget
/// affords twice the rows — and read back as double.  The ~1e-7 relative
/// rounding sits far below the SMO KKT tolerance (1e-3): solves agree
/// with the exact GramRowEngine path to 1e-3 on alphas/rho/objective and
/// exactly on predicted labels.
///
/// How rows are kept depends on the capacity, fixed at construction:
///  - A complete cache (capacity ≥ rows) gives every row a fixed slot.
///    The reader that first misses row i computes it on its own thread
///    and publishes it into slot i once, with a release store under the
///    mutex; a reader that raced it to the same row drops its own copy.
///    Every later read is one acquire load: no mutex, no LRU splice, no
///    hash lookup and no shared reference count.  Published rows live
///    until the cache is destroyed; nothing evicts them.
///  - A smaller cache is an LRU under the mutex.  Rows are handed out
///    with shared ownership so readers stay valid across evictions; a
///    row raced by two threads may be computed twice but is inserted
///    once.
///
/// Degraded modes (both produce bit-identical rows — every path shares
/// one fill-and-narrow helper):
///  - Row-payload allocation failure (std::bad_alloc, or the injected
///    `gram_cache.alloc` fault) retries the compute once before giving up
///    (`fail.gram_cache.alloc` / `retry.gram_cache.evict_retry` metrics).
///    The LRU first evicts every resident row; a complete cache evicts
///    nothing, since lock-free readers may hold any published row.
///  - When the memory budget is exceeded (the `gram_cache.budget`
///    failpoint armed with a `return` policy), row() computes without
///    caching and leaves the slots and the LRU untouched
///    (`gram_cache.uncached_rows` metric).
class SharedGramCache {
 public:
  SharedGramCache(const Matrix& X, Kernel kernel, std::size_t capacity_rows);
  /// Releases this cache's share of the process-wide resident gauges.
  ~SharedGramCache();

  /// One cached full-matrix kernel row.  Immutable once handed out.
  class Row {
   public:
    std::size_t size() const { return data_.size(); }

    double operator[](std::size_t j) const {
      return static_cast<double>(data_[j]);
    }

    /// out[t] = row[idx[t]] — the one-vs-one subset slice.
    void gather(std::span<const std::size_t> idx,
                std::span<double> out) const;

    /// Σ_s coef[s] * row[idx[s]] — a cached-row decision value.
    double dot_at(std::span<const std::size_t> idx,
                  std::span<const double> coef) const;

   private:
    friend class SharedGramCache;
    std::vector<float> data_;
  };

  /// A handed-out row.  A complete cache's row needs no owner: it lives
  /// as long as the cache.  An LRU or uncached row is shared with its
  /// reader, so an eviction cannot free it under the reader.
  class RowRef {
   public:
    const Row& operator*() const { return *row_; }
    const Row* operator->() const { return row_; }
    const Row* get() const { return row_; }

   private:
    friend class SharedGramCache;
    explicit RowRef(const Row* row) : row_(row) {}
    explicit RowRef(std::shared_ptr<const Row> owner)
        : row_(owner.get()), owner_(std::move(owner)) {}

    const Row* row_ = nullptr;
    std::shared_ptr<const Row> owner_;
  };

  /// Full kernel row i of the backing matrix (computed/cached on demand;
  /// computed-only while the budget failpoint fires — see the class
  /// comment).
  RowRef row(std::size_t i);

  /// k(x_i, x_i) in O(1) from the cached norms (always full precision —
  /// the solver's curvature terms never pay the float32 rounding).
  double diagonal(std::size_t i) const { return diag_[i]; }

  const GramRowEngine& engine() const { return engine_; }
  std::size_t rows() const { return engine_.rows(); }

  /// Bytes of payload per cached row.
  std::size_t row_bytes() const { return engine_.rows() * sizeof(float); }
  std::size_t capacity_rows() const { return capacity_; }
  std::size_t capacity_bytes() const { return capacity_ * row_bytes(); }

  /// Rows of length `n` affordable under `budget_bytes` (floor 2, so the
  /// LRU always has a victim and a survivor).
  static std::size_t rows_for_budget(std::size_t n, std::size_t budget_bytes);

  /// One consistent view of the cache counters.  Taken under the cache
  /// lock in a single acquisition, so cross-field invariants (e.g.
  /// evictions ≤ misses, resident_rows ≤ capacity) hold even while
  /// other threads ingest rows — reading the individual accessors one
  /// after another can interleave with writers and tear.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t resident_rows = 0;
    std::size_t resident_bytes = 0;
  };
  Stats stats() const;

  std::size_t hits() const { return stats().hits; }
  std::size_t misses() const { return stats().misses; }
  std::size_t evictions() const { return stats().evictions; }

 private:
  using RowPtr = std::shared_ptr<const Row>;

  /// Fills row i (no locking, no LRU).  The single compute used by the
  /// cached, uncached and retry paths.
  RowPtr compute_row(std::size_t i) const;
  /// compute_row for a miss, with the allocation-failure retry.
  RowPtr compute_missed_row(std::size_t i);
  /// row() on the LRU.
  RowRef lru_row(std::size_t i);
  /// Allocation-pressure fallback of the LRU: drops every resident row
  /// (gauges updated) so the retried compute has the whole budget to
  /// itself.
  void evict_all();

  GramRowEngine engine_;
  std::vector<double> diag_;
  std::size_t capacity_;
  bool complete_;
  /// Complete cache only: slot i is null until row i is published, then
  /// points at owned_[i] for the cache's lifetime.
  std::vector<std::atomic<const Row*>> slots_;
  std::atomic<std::size_t> hits_{0};

  mutable std::mutex mutex_;
  std::vector<RowPtr> owned_;  // complete cache: the published rows
  std::size_t published_ = 0;
  std::list<std::size_t> lru_;  // most recent at front
  struct Entry {
    RowPtr data;
    std::list<std::size_t>::iterator lru_it;
  };
  std::unordered_map<std::size_t, Entry> rows_;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace xdmodml::ml
