// Support vector machines: binary C-SVC, one-vs-one multiclass with
// probability outputs, and ε-SVR — functional equivalents of the R e1071
// (LIBSVM) models the paper uses with γ = 0.1, C = 1000.
//
// Probability machinery follows LIBSVM:
//  * per-binary-machine Platt scaling, with the sigmoid fit by the
//    Lin–Weng Newton iteration on cross-validated decision values;
//  * multiclass probabilities by pairwise coupling (Wu, Lin & Weng 2004,
//    the `multiclass_probability` fixed-point iteration).
// These probabilities drive every threshold figure in the paper (1–4).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "ml/classifier.hpp"
#include "ml/kernel.hpp"
#include "ml/smo.hpp"
#include "util/matrix.hpp"

namespace xdmodml::ml {

/// Shared SVM hyper-parameters (paper defaults).
struct SvmConfig {
  Kernel kernel = Kernel::rbf(0.1);
  double c = 1000.0;            ///< soft-margin penalty
  /// Optional per-class multipliers on C (size = num_classes).  The
  /// paper suggests class weighting to counter the native mix's
  /// imbalance ("could possibly be ameliorated by weighting the
  /// classes"); rare classes get larger effective C.
  std::vector<double> class_weights;
  SmoConfig smo;                ///< solver knobs
  bool probability = true;      ///< fit Platt sigmoids (needed for Figs 1–4)
  std::size_t platt_cv_folds = 3;  ///< CV folds for calibration values
  bool parallel = true;         ///< train OvO machines on the thread pool
  double epsilon = 0.1;         ///< ε-SVR tube half-width
  /// Share one thread-safe full-matrix kernel-row cache across all
  /// one-vs-one sub-problems (each Gram row is computed once and sliced
  /// by every machine whose subset contains it).  Off = each machine
  /// solves over its own GramRowEngine with the solver's per-machine LRU,
  /// which wins once the full matrix outgrows `shared_cache_bytes`
  /// (DESIGN.md §7).
  bool share_kernel_cache = true;
  /// Memory budget for the shared cache (bytes of row storage).
  std::size_t shared_cache_bytes = 256ull << 20;
};

/// Parameters of a fitted Platt sigmoid  P(+1|f) = 1/(1+exp(A f + B)).
struct PlattSigmoid {
  double a = 0.0;
  double b = 0.0;

  double probability(double decision_value) const;
};

/// Fits the Platt sigmoid by the Lin–Weng regularized Newton method.
/// `decision_values` and `labels` (±1) must be parallel and non-empty.
PlattSigmoid fit_platt_sigmoid(std::span<const double> decision_values,
                               std::span<const signed char> labels);

/// Pairwise coupling of one-vs-one probabilities into class probabilities
/// (Wu–Lin–Weng).  `pairwise(i, j)` for i < j is P(class i | {i, j}, x).
std::vector<double> couple_pairwise_probabilities(const Matrix& pairwise);

/// A single two-class soft-margin SVM.  Its support vectors are rows of
/// a SupportVectorPool: a pool of its own after `fit` or `load`, or the
/// pool every machine of an SvmClassifier shares.
class BinarySvm {
 public:
  /// Trains on rows of X with ±1 labels.  When `config.probability` is
  /// set, also fits a Platt sigmoid on cross-validated decision values.
  /// `c_positive` / `c_negative` scale C for the two classes (class
  /// weighting); 1.0 = unweighted.
  ///
  /// `shared_cache` (optional) is a kernel-row cache over a *full*
  /// training matrix of which X is a row subset; `shared_rows[i]` is the
  /// full-matrix row backing X's row i.  When provided, kernel rows are
  /// sliced out of the shared cache instead of being recomputed over the
  /// subset — the multiclass one-vs-one trainer passes one cache to all
  /// of its machines.
  void fit(const Matrix& X, std::span<const signed char> y,
           const SvmConfig& config, std::uint64_t seed = 1,
           double c_positive = 1.0, double c_negative = 1.0,
           SharedGramCache* shared_cache = nullptr,
           std::span<const std::size_t> shared_rows = {});

  /// Signed decision value f(x) = Σ coef_i k(sv_i, x) − rho: the
  /// per-machine reference walk, one scalar kernel call per support
  /// vector, each row read from the pool.
  double decision_value(std::span<const double> x) const;

  /// P(label = +1 | x) via the Platt sigmoid (requires probability fit).
  double probability_positive(std::span<const double> x) const;

  bool has_probability() const { return has_platt_; }
  std::size_t num_support_vectors() const { return coef_.size(); }
  /// The pool holding this machine's support vectors (null before fit).
  const std::shared_ptr<const SupportVectorPool>& pool() const {
    return pool_;
  }
  /// Pool row of each support vector, in this machine's SV order.
  std::span<const std::uint32_t> pool_indices() const { return pool_idx_; }
  const Kernel& kernel() const { return kernel_; }
  double rho() const { return rho_; }
  /// alpha_i * y_i per support vector (|coef_i| = alpha_i); exposed for
  /// the float32-cache-vs-exact equivalence tests.
  std::span<const double> coefficients() const { return coef_; }
  const PlattSigmoid& sigmoid() const;

  /// decision_value for a probe that is itself a row of the shared
  /// cache's full matrix: every k(sv, probe) is an entry of the probe's
  /// cached Gram row, so no kernel evaluation happens here.  Only valid
  /// when this machine was fitted through the same cache.  Used by the
  /// Platt CV folds and by `SvmClassifier::predict_shared` (CV test
  /// rows of a tuning sweep live in the same full matrix).
  double decision_value_cached(SharedGramCache& cache,
                               std::size_t full_row) const;

  /// Reads one machine of an svm-ovo-v1 stream (binary-svm-v1 or -v2),
  /// into a pool of its own.  Current models save as svm-ovo-v2, which
  /// SvmClassifier reads itself.
  static BinarySvm load(std::istream& in);

 private:
  friend class SvmClassifier;

  void fit_decision(const Matrix& X, std::span<const signed char> y,
                    const SvmConfig& config, double c_positive,
                    double c_negative, SharedGramCache* shared_cache,
                    std::span<const std::size_t> shared_rows);

  Kernel kernel_;
  std::shared_ptr<const SupportVectorPool> pool_;
  std::vector<std::uint32_t> pool_idx_;  ///< pool row per SV
  std::vector<double> coef_;  ///< alpha_i * y_i, aligned with pool_idx_
  /// Full-matrix row index of each SV when fitted via a shared cache
  /// (empty otherwise); enables decision_value_cached.  Never saved.
  std::vector<std::size_t> sv_full_rows_;
  /// Each SV's row in the matrix `fit` was given, until SvmClassifier
  /// moves the machine onto its model's pool.
  std::vector<std::size_t> fit_rows_;
  /// The box: 0 <= alpha_i <= c_positive_ for +1 support vectors and
  /// <= c_negative_ for -1 ones.
  double c_positive_ = 0.0;
  double c_negative_ = 0.0;
  double rho_ = 0.0;
  PlattSigmoid platt_;
  bool has_platt_ = false;
};

class SvmInferencePlan;  // ml/svm_plan.hpp

/// One-vs-one multiclass SVM with coupled probability outputs.
///
/// A trained model stores each support vector once, in one pool all of
/// its machines index into (ml/svm_plan.hpp), and serves every
/// prediction through the compiled inference plan over that pool — one
/// SIMD kernel row per query, shared by all machines.  `fit` and `load`
/// build the plan; copies share it.
class SvmClassifier final : public Classifier {
 public:
  explicit SvmClassifier(SvmConfig config = {}, std::uint64_t seed = 11);

  void fit(const Matrix& X, std::span<const int> y, int num_classes) override;

  /// Trains against an *external* full-matrix kernel-row cache.  X must
  /// be a row subset of the cache's backing matrix and `cache_rows[i]`
  /// the full-matrix row behind X's row i; the kernel must match
  /// `config.kernel`.  This is the cross-fit reuse hook: a tuning sweep
  /// builds one SharedGramCache per γ over the standardized full dataset
  /// and every CV fold of every C cell slices rows out of it, exactly
  /// the way one-vs-one machines already share the per-fit cache.  With
  /// `cache == nullptr` this is identical to fit().
  void fit_shared(const Matrix& X, std::span<const int> y, int num_classes,
                  SharedGramCache* cache,
                  std::span<const std::size_t> cache_rows);

  /// With probability fitting: pairwise-coupled class probabilities.
  /// Without: normalized vote fractions (ablation arm).
  std::vector<double> predict_proba(std::span<const double> x) const override;

  /// Predicted label.  In probability mode this is the argmax of the
  /// pairwise-coupled probability vector, so the label always agrees
  /// with `predict_proba` / `predict_with_probability` and a threshold
  /// on the top-class probability gates the *reported* class (the
  /// paper's Figures 1–4 workflow).  Without probability fitting the
  /// label comes from hard one-vs-one votes, ties resolving to the
  /// lowest class index.
  ///
  /// Note this deliberately differs from LIBSVM/e1071, which keep the
  /// vote label even when probabilities are fitted and can therefore
  /// report a label that disagrees with the probability argmax; that
  /// inconsistency is exactly the bug the threshold workflow tripped
  /// over.  The vote rule remains available via `predict_by_votes`.
  int predict(std::span<const double> x) const override;

  /// Hard one-vs-one vote label (LIBSVM's rule), independent of
  /// probability fitting.  Ties resolve to the lowest class index.
  int predict_by_votes(std::span<const double> x) const;

  /// Predicts probes that are themselves rows of `cache`'s full matrix,
  /// given by full-matrix row index.  Every k(sv, probe) the machines
  /// need is an entry of the probe's cached Gram row, so no kernel
  /// evaluations happen here — a tuning sweep's CV test folds reuse the
  /// very rows training filled.  Only valid after `fit_shared` through
  /// the same cache; follows `predict`'s labelling rule.
  std::vector<int> predict_shared(SharedGramCache& cache,
                                  std::span<const std::size_t> rows) const;

  /// Label + probability; the label is the argmax of `predict_proba`
  /// (coupled probabilities, or vote fractions without a Platt fit) and
  /// the probability is that same class's entry, so the pair is always
  /// self-consistent.
  Prediction predict_with_probability(
      std::span<const double> x) const override;

  /// Fused batch entry points: tiles of up to 8 query rows are swept
  /// against the shared support-vector pool (one pool read serves the
  /// tile) and every machine is reduced over the tile's lanes at once,
  /// the tiles fanned out on the thread pool.  Results equal the
  /// single-row calls bit for bit.
  std::vector<int> predict_batch(const Matrix& X) const override;
  std::vector<std::vector<double>> predict_proba_batch(
      const Matrix& X) const override;
  std::vector<Prediction> predict_batch_with_probability(
      const Matrix& X) const override;

  /// The compiled inference plan, built by fit and load.  Requires a
  /// trained model.
  const SvmInferencePlan& inference_plan() const;

  int num_classes() const override { return num_classes_; }
  std::size_t num_machines() const { return machines_.size(); }
  /// The idx-th one-vs-one machine in lexicographic (a, b) order;
  /// exposed for the equivalence test layer.
  const BinarySvm& machine(std::size_t idx) const { return machines_[idx]; }
  std::size_t total_support_vectors() const;

  /// Serialization of a trained multiclass model: writes svm-ovo-v2
  /// (the pool once, then each machine over it); reads v2 and the older
  /// svm-ovo-v1 (DESIGN.md §13).
  void save(std::ostream& out) const;
  static SvmClassifier load(std::istream& in);

 private:
  /// Moves every machine onto one pool of `rows` (row-major, `dims`
  /// wide), machine m's support vector s onto pool row pool_idx[m][s],
  /// and builds the plan.
  void share_pool(std::span<const double> rows, std::size_t dims,
                  std::vector<std::vector<std::uint32_t>> pool_idx);

  SvmConfig config_;
  std::uint64_t seed_;
  int num_classes_ = 0;
  std::vector<BinarySvm> machines_;  // (0,1), (0,2), ..., (k-2,k-1)
  std::shared_ptr<const SvmInferencePlan> plan_;
};

/// ε-support-vector regression (doubled-variable SMO, as in LIBSVM).
class SvmRegressor final : public Regressor {
 public:
  explicit SvmRegressor(SvmConfig config = {});

  void fit(const Matrix& X, std::span<const double> y) override;
  double predict(std::span<const double> x) const override;

  std::size_t num_support_vectors() const { return support_vectors_.rows(); }

  /// Serialization of a trained regressor.
  void save(std::ostream& out) const;
  static SvmRegressor load(std::istream& in);

 private:
  SvmConfig config_;
  Kernel kernel_;
  Matrix support_vectors_;
  std::vector<double> coef_;
  double rho_ = 0.0;
  bool trained_ = false;
};

}  // namespace xdmodml::ml
