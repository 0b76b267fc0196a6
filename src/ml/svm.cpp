#include "ml/svm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "ml/model_io.hpp"
#include "ml/svm_plan.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace xdmodml::ml {

double PlattSigmoid::probability(double decision_value) const {
  // Numerically stable logistic evaluation.
  const double f = a * decision_value + b;
  if (f >= 0.0) {
    const double e = std::exp(-f);
    return e / (1.0 + e);
  }
  return 1.0 / (1.0 + std::exp(f));
}

PlattSigmoid fit_platt_sigmoid(std::span<const double> decision_values,
                               std::span<const signed char> labels) {
  XDMODML_CHECK(decision_values.size() == labels.size() &&
                    !decision_values.empty(),
                "Platt fit requires parallel non-empty inputs");
  const std::size_t n = decision_values.size();

  // Lin, Lin & Weng (2007) Algorithm 1.
  double prior1 = 0.0;
  double prior0 = 0.0;
  for (const auto y : labels) (y > 0 ? prior1 : prior0) += 1.0;

  const double hi_target = (prior1 + 1.0) / (prior1 + 2.0);
  const double lo_target = 1.0 / (prior0 + 2.0);
  std::vector<double> t(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = labels[i] > 0 ? hi_target : lo_target;
  }

  double a = 0.0;
  double b = std::log((prior0 + 1.0) / (prior1 + 1.0));
  constexpr int kMaxIter = 100;
  constexpr double kMinStep = 1e-10;
  constexpr double kSigma = 1e-12;
  constexpr double kEps = 1e-5;

  auto objective = [&](double aa, double bb) {
    double obj = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double f = decision_values[i] * aa + bb;
      if (f >= 0.0) {
        obj += t[i] * f + std::log1p(std::exp(-f));
      } else {
        obj += (t[i] - 1.0) * f + std::log1p(std::exp(f));
      }
    }
    return obj;
  };

  double fval = objective(a, b);
  for (int iter = 0; iter < kMaxIter; ++iter) {
    // Gradient and Hessian.
    double h11 = kSigma;
    double h22 = kSigma;
    double h21 = 0.0;
    double g1 = 0.0;
    double g2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double f = decision_values[i] * a + b;
      double p = 0.0;
      double q = 0.0;
      if (f >= 0.0) {
        const double e = std::exp(-f);
        p = e / (1.0 + e);
        q = 1.0 / (1.0 + e);
      } else {
        const double e = std::exp(f);
        p = 1.0 / (1.0 + e);
        q = e / (1.0 + e);
      }
      const double d2 = p * q;
      h11 += decision_values[i] * decision_values[i] * d2;
      h22 += d2;
      h21 += decision_values[i] * d2;
      const double d1 = t[i] - p;
      g1 += decision_values[i] * d1;
      g2 += d1;
    }
    if (std::abs(g1) < kEps && std::abs(g2) < kEps) break;

    // Newton direction with backtracking line search.
    const double det = h11 * h22 - h21 * h21;
    const double da = -(h22 * g1 - h21 * g2) / det;
    const double db = -(-h21 * g1 + h11 * g2) / det;
    const double gd = g1 * da + g2 * db;
    double step = 1.0;
    while (step >= kMinStep) {
      const double new_a = a + step * da;
      const double new_b = b + step * db;
      const double new_f = objective(new_a, new_b);
      if (new_f < fval + 1e-4 * step * gd) {
        a = new_a;
        b = new_b;
        fval = new_f;
        break;
      }
      step *= 0.5;
    }
    if (step < kMinStep) break;  // line search failed
  }
  return PlattSigmoid{a, b};
}

std::vector<double> couple_pairwise_probabilities(const Matrix& pairwise) {
  const std::size_t k = pairwise.rows();
  XDMODML_CHECK(k > 0 && pairwise.cols() == k,
                "pairwise matrix must be square");
  if (k == 1) return {1.0};

  // LIBSVM multiclass_probability (Wu–Lin–Weng method 2).
  // r(i, j) = P(i | i or j); r(j, i) = 1 - r(i, j).
  Matrix q(k, k, 0.0);
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t j = 0; j < k; ++j) {
      if (j == t) continue;
      q(t, t) += pairwise(j, t) * pairwise(j, t);
      q(t, j) = -pairwise(j, t) * pairwise(t, j);
    }
  }

  std::vector<double> p(k, 1.0 / static_cast<double>(k));
  std::vector<double> qp(k, 0.0);
  const std::size_t max_iter = std::max<std::size_t>(100, k);
  constexpr double kEps = 0.005 / 100.0;
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    double pqp = 0.0;
    for (std::size_t t = 0; t < k; ++t) {
      qp[t] = 0.0;
      for (std::size_t j = 0; j < k; ++j) qp[t] += q(t, j) * p[j];
      pqp += p[t] * qp[t];
    }
    double max_error = 0.0;
    for (std::size_t t = 0; t < k; ++t) {
      max_error = std::max(max_error, std::abs(qp[t] - pqp));
    }
    if (max_error < kEps) break;
    for (std::size_t t = 0; t < k; ++t) {
      const double diff = (-qp[t] + pqp) / q(t, t);
      p[t] += diff;
      pqp = (pqp + diff * (diff * q(t, t) + 2.0 * qp[t])) /
            ((1.0 + diff) * (1.0 + diff));
      for (std::size_t j = 0; j < k; ++j) {
        qp[j] = (qp[j] + diff * q(t, j)) / (1.0 + diff);
        p[j] /= (1.0 + diff);
      }
    }
  }
  // Clean up round-off and renormalize.
  double total = 0.0;
  for (auto& v : p) {
    v = std::max(0.0, v);
    total += v;
  }
  if (total <= 0.0) {
    std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(k));
  } else {
    for (auto& v : p) v /= total;
  }
  return p;
}

void BinarySvm::fit_decision(const Matrix& X, std::span<const signed char> y,
                             const SvmConfig& config, double c_positive,
                             double c_negative, SharedGramCache* shared_cache,
                             std::span<const std::size_t> shared_rows) {
  const std::size_t n = X.rows();
  std::vector<double> p(n, -1.0);
  std::vector<double> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = config.c * (y[i] > 0 ? c_positive : c_negative);
  }

  SmoProblem problem;
  problem.n = n;
  problem.p = p;
  problem.y = y;
  problem.c = c;
  std::optional<GramRowEngine> engine;
  if (shared_cache != nullptr && shared_rows.size() == n) {
    // One-vs-one sub-problem: slice this pair's rows/columns out of the
    // shared full-matrix cache instead of recomputing the kernels over
    // the gathered subset.
    problem.kernel_row = [shared_cache, shared_rows](std::size_t i,
                                                     std::span<double> out) {
      const auto full = shared_cache->row(shared_rows[i]);
      full->gather(shared_rows, out.subspan(0, shared_rows.size()));
    };
    problem.kernel_diag = [shared_cache, shared_rows](std::size_t i) {
      return shared_cache->diagonal(shared_rows[i]);
    };
  } else {
    engine.emplace(X, config.kernel);
    problem.kernel_row = [&engine](std::size_t i, std::span<double> out) {
      engine->fill_row(i, out);
    };
    problem.kernel_diag = [&engine](std::size_t i) {
      return engine->diagonal(i);
    };
  }

  const SmoResult result = solve_smo(problem, config.smo);
  rho_ = result.rho;
  kernel_ = config.kernel;

  c_positive_ = config.c * c_positive;
  c_negative_ = config.c * c_negative;

  // Keep only the support vectors, in a pool of this machine's own.
  fit_rows_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (result.alpha[i] > 0.0) fit_rows_.push_back(i);
  }
  pool_ = std::make_shared<const SupportVectorPool>(
      X.gather_rows(fit_rows_).data(), X.cols());
  pool_idx_.resize(fit_rows_.size());
  std::iota(pool_idx_.begin(), pool_idx_.end(), 0u);
  coef_.resize(fit_rows_.size());
  for (std::size_t s = 0; s < fit_rows_.size(); ++s) {
    coef_[s] = result.alpha[fit_rows_[s]] *
               static_cast<double>(y[fit_rows_[s]]);
  }
  sv_full_rows_.clear();
  if (shared_cache != nullptr && shared_rows.size() == n) {
    sv_full_rows_.reserve(fit_rows_.size());
    for (const auto r : fit_rows_) sv_full_rows_.push_back(shared_rows[r]);
  }
}

void BinarySvm::fit(const Matrix& X, std::span<const signed char> y,
                    const SvmConfig& config, std::uint64_t seed,
                    double c_positive, double c_negative,
                    SharedGramCache* shared_cache,
                    std::span<const std::size_t> shared_rows) {
  XDMODML_CHECK(c_positive > 0.0 && c_negative > 0.0,
                "class weights must be positive");
  XDMODML_CHECK(shared_cache == nullptr || shared_rows.size() == X.rows(),
                "shared_rows must map every row of X into the shared cache");
  XDMODML_CHECK(X.rows() == y.size() && X.rows() >= 2,
                "binary SVM needs at least two samples");
  bool has_pos = false;
  bool has_neg = false;
  for (const auto v : y) {
    XDMODML_CHECK(v == 1 || v == -1, "binary SVM labels must be ±1");
    (v > 0 ? has_pos : has_neg) = true;
  }
  XDMODML_CHECK(has_pos && has_neg, "binary SVM needs both classes");

  has_platt_ = false;
  if (config.probability) {
    // Cross-validated decision values keep the sigmoid honest: in-sample
    // decision values of a C=1000 RBF machine are nearly separable and
    // would produce a degenerate, overconfident sigmoid.
    const std::size_t folds =
        std::min<std::size_t>(std::max<std::size_t>(2, config.platt_cv_folds),
                              X.rows());
    Rng rng(seed);
    std::vector<std::size_t> order(X.rows());
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);

    std::vector<double> cv_decisions(X.rows(), 0.0);
    std::vector<signed char> cv_labels(X.rows(), 0);
    bool cv_ok = true;
    for (std::size_t f = 0; f < folds && cv_ok; ++f) {
      std::vector<std::size_t> train_rows;
      std::vector<std::size_t> test_rows;
      for (std::size_t i = 0; i < order.size(); ++i) {
        (i % folds == f ? test_rows : train_rows).push_back(order[i]);
      }
      std::vector<signed char> train_y;
      train_y.reserve(train_rows.size());
      bool fold_pos = false;
      bool fold_neg = false;
      for (const auto r : train_rows) {
        train_y.push_back(y[r]);
        (y[r] > 0 ? fold_pos : fold_neg) = true;
      }
      if (!fold_pos || !fold_neg || train_rows.size() < 2) {
        cv_ok = false;
        break;
      }
      BinarySvm fold_svm;
      SvmConfig fold_config = config;
      fold_config.probability = false;
      // Fold rows are a subset of a subset: compose the mapping so the
      // fold fit still slices rows out of the same shared cache.
      std::vector<std::size_t> fold_shared;
      if (shared_cache != nullptr) {
        fold_shared.reserve(train_rows.size());
        for (const auto r : train_rows) fold_shared.push_back(shared_rows[r]);
      }
      fold_svm.fit(X.gather_rows(train_rows), train_y, fold_config,
                   seed + f, c_positive, c_negative, shared_cache,
                   fold_shared);
      for (std::size_t i = 0; i < test_rows.size(); ++i) {
        const auto r = test_rows[i];
        // Held-out rows are rows of the shared cache's full matrix, so
        // their decision values are dot products against an already (or
        // soon-to-be) cached Gram row — no fresh kernel evaluations.
        cv_decisions[r] =
            shared_cache != nullptr
                ? fold_svm.decision_value_cached(*shared_cache,
                                                shared_rows[r])
                : fold_svm.decision_value(X.row(r));
        cv_labels[r] = y[r];
      }
    }
    if (cv_ok) {
      platt_ = fit_platt_sigmoid(cv_decisions, cv_labels);
      has_platt_ = true;
    }
  }

  fit_decision(X, y, config, c_positive, c_negative, shared_cache,
               shared_rows);

  if (config.probability && !has_platt_) {
    // CV degenerate (tiny class) — fall back to in-sample calibration.
    std::vector<double> decisions(X.rows());
    for (std::size_t i = 0; i < X.rows(); ++i) {
      decisions[i] = shared_cache != nullptr
                         ? decision_value_cached(*shared_cache,
                                                 shared_rows[i])
                         : decision_value(X.row(i));
    }
    platt_ = fit_platt_sigmoid(decisions, y);
    has_platt_ = true;
  }
}

double BinarySvm::decision_value(std::span<const double> x) const {
  XDMODML_CHECK(pool_ != nullptr, "decision_value before fit");
  std::vector<double> sv(pool_->dims());
  double f = -rho_;
  for (std::size_t s = 0; s < coef_.size(); ++s) {
    pool_->row(pool_idx_[s], sv.data());
    f += coef_[s] * kernel_(sv, x);
  }
  return f;
}

double BinarySvm::decision_value_cached(SharedGramCache& cache,
                                        std::size_t full_row) const {
  XDMODML_CHECK(pool_ != nullptr, "decision_value before fit");
  XDMODML_CHECK(sv_full_rows_.size() == coef_.size(),
                "machine was not fitted through this shared cache");
  const auto row = cache.row(full_row);
  return row->dot_at(sv_full_rows_, coef_) - rho_;
}

double BinarySvm::probability_positive(std::span<const double> x) const {
  XDMODML_CHECK(has_platt_, "probability requested without Platt fit");
  return platt_.probability(decision_value(x));
}

const PlattSigmoid& BinarySvm::sigmoid() const {
  XDMODML_CHECK(has_platt_, "sigmoid unavailable");
  return platt_;
}

namespace {

// The kernel fields of a model stream, one kernel per SVM.
Kernel read_kernel(io::TokenReader& reader) {
  Kernel kernel;
  const auto type = reader.read_int("kernel_type");
  XDMODML_CHECK(type >= 0 && type <= 2, "corrupt SVM kernel type");
  kernel.type = static_cast<Kernel::Type>(type);
  kernel.gamma = reader.read_double("gamma");
  // exp(-gamma * d^2) with gamma <= 0 is no RBF kernel: a negative gamma
  // grows without bound and saturates every probability.
  XDMODML_CHECK(kernel.type != Kernel::Type::kRbf || kernel.gamma > 0.0,
                "corrupt SVM RBF gamma");
  kernel.degree = reader.read_double("degree");
  kernel.coef0 = reader.read_double("coef0");
  // Kernel::polynomial's invariants.  Degree 0 makes every kernel value
  // 1, so every query gets one label; a gamma <= 0 serves plausible but
  // wrong probabilities.
  XDMODML_CHECK(kernel.type != Kernel::Type::kPolynomial ||
                    (kernel.degree > 0.0 && kernel.gamma > 0.0),
                "corrupt SVM polynomial degree or gamma");
  return kernel;
}

void write_kernel(std::ostream& out, const Kernel& kernel) {
  io::write_scalar(out, "kernel_type",
                   static_cast<std::int64_t>(kernel.type));
  io::write_scalar(out, "gamma", kernel.gamma);
  io::write_scalar(out, "degree", kernel.degree);
  io::write_scalar(out, "coef0", kernel.coef0);
}

// FNV-1a over a row's raw bytes — the content-dedup bucket key.  Exact
// equality is re-verified with memcmp, so collisions only cost a probe.
std::uint64_t hash_row_bytes(const double* row, std::size_t d) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(row);
  for (std::size_t i = 0; i < d * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

// An svm-ovo-v1 stream stores every machine's support vectors in full,
// so its model pool is found by content: each distinct row once, in
// order of first use, into `rows`; machine m's support vector s becomes
// pool row pool_idx[m][s].
void gather_by_content(std::span<const BinarySvm> machines,
                       std::vector<double>& rows,
                       std::vector<std::vector<std::uint32_t>>& pool_idx) {
  const std::size_t d = machines[0].pool()->dims();
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_content;
  std::vector<double> sv(d);
  auto pool_row = [&]() -> std::uint32_t {
    auto& bucket = by_content[hash_row_bytes(sv.data(), d)];
    for (const auto idx : bucket) {
      if (std::memcmp(rows.data() + idx * d, sv.data(),
                      d * sizeof(double)) == 0) {
        return idx;
      }
    }
    const auto next = static_cast<std::uint32_t>(rows.size() / d);
    bucket.push_back(next);
    rows.insert(rows.end(), sv.begin(), sv.end());
    return next;
  };
  for (const auto& m : machines) {
    XDMODML_CHECK(m.pool()->dims() == d,
                  "inference plan requires one feature width");
    auto& idx = pool_idx.emplace_back();
    for (const auto j : m.pool_indices()) {
      m.pool()->row(j, sv.data());
      idx.push_back(pool_row());
    }
  }
}

}  // namespace

BinarySvm BinarySvm::load(std::istream& in) {
  io::TokenReader reader(in);
  const auto tag = reader.read_tag();
  XDMODML_CHECK(tag == "binary-svm-v1" || tag == "binary-svm-v2",
                "model stream: unknown binary SVM version '" + tag + "'");
  BinarySvm svm;
  svm.kernel_ = read_kernel(reader);
  svm.rho_ = reader.read_double("rho");
  svm.has_platt_ = reader.read_int("has_platt") != 0;
  svm.platt_.a = reader.read_double("platt_a");
  svm.platt_.b = reader.read_double("platt_b");
  const auto svs = reader.read_int("svs");
  const auto dims = reader.read_int("dims");
  XDMODML_CHECK(svs > 0 && dims > 0, "corrupt SVM shape");
  svm.coef_ = reader.read_vector("coef");
  XDMODML_CHECK(svm.coef_.size() == static_cast<std::size_t>(svs),
                "corrupt SVM coefficient count");
  std::vector<double> rows;
  for (std::int64_t r = 0; r < svs; ++r) {
    const auto row = reader.read_vector("sv");
    XDMODML_CHECK(row.size() == static_cast<std::size_t>(dims),
                  "corrupt SVM support vector width");
    rows.insert(rows.end(), row.begin(), row.end());
  }
  // v2 machines end with their support vectors' training-row ids, which
  // nothing reads any more.
  if (tag == "binary-svm-v2") reader.read_index_vector("full_rows");
  svm.pool_ = std::make_shared<const SupportVectorPool>(
      rows, static_cast<std::size_t>(dims));
  svm.pool_idx_.resize(svm.coef_.size());
  std::iota(svm.pool_idx_.begin(), svm.pool_idx_.end(), 0u);
  // The stream carries no C: the box is the one these coefficients fill.
  for (const double c : svm.coef_) {
    double& bound = c > 0.0 ? svm.c_positive_ : svm.c_negative_;
    bound = std::max(bound, std::abs(c));
  }
  return svm;
}

SvmClassifier::SvmClassifier(SvmConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {}

const SvmInferencePlan& SvmClassifier::inference_plan() const {
  XDMODML_CHECK(plan_ != nullptr, "predict before fit");
  return *plan_;
}

void SvmClassifier::share_pool(
    std::span<const double> rows, std::size_t dims,
    std::vector<std::vector<std::uint32_t>> pool_idx) {
  const auto pool = std::make_shared<const SupportVectorPool>(rows, dims);
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    machines_[m].pool_ = pool;
    machines_[m].pool_idx_ = std::move(pool_idx[m]);
    machines_[m].fit_rows_ = {};
  }
  plan_ = SvmInferencePlan::build(machines_);
}

void SvmClassifier::fit(const Matrix& X, std::span<const int> y,
                        int num_classes) {
  fit_shared(X, y, num_classes, nullptr, {});
}

void SvmClassifier::fit_shared(const Matrix& X, std::span<const int> y,
                               int num_classes, SharedGramCache* cache,
                               std::span<const std::size_t> cache_rows) {
  XDMODML_CHECK(X.rows() == y.size() && X.rows() > 0,
                "fit requires matching non-empty X and y");
  XDMODML_CHECK(num_classes >= 2, "multiclass SVM needs >= 2 classes");
  if (cache != nullptr) {
    XDMODML_CHECK(cache_rows.size() == X.rows(),
                  "cache_rows must map every row of X into the cache");
    const auto& k = cache->engine().kernel();
    XDMODML_CHECK(k.type == config_.kernel.type &&
                      k.gamma == config_.kernel.gamma &&
                      k.degree == config_.kernel.degree &&
                      k.coef0 == config_.kernel.coef0,
                  "external cache kernel must match the SVM kernel");
  }
  num_classes_ = num_classes;

  // Group rows by class once.
  std::vector<std::vector<std::size_t>> rows_by_class(
      static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < y.size(); ++i) {
    XDMODML_CHECK(y[i] >= 0 && y[i] < num_classes, "label out of range");
    rows_by_class[static_cast<std::size_t>(y[i])].push_back(i);
  }

  struct PairTask {
    int a;
    int b;
    std::uint64_t seed;
  };
  std::vector<PairTask> tasks;
  for (int a = 0; a < num_classes; ++a) {
    for (int b = a + 1; b < num_classes; ++b) {
      tasks.push_back({a, b, 0});
    }
  }
  Rng root(seed_);
  for (auto& task : tasks) task.seed = root();

  // One norm vector + kernel-row cache over the full training matrix,
  // shared by every one-vs-one sub-problem (and their Platt CV folds):
  // each Gram row is computed once, vectorized, and sliced by the up to
  // k−1 machines whose subsets contain that sample.  The capacity is
  // clamped to a byte budget so huge fits degrade to LRU reuse instead
  // of materialising an n² matrix.  A caller-provided cache (the tuning
  // sweep's per-γ cache over the full standardized dataset) takes the
  // place of the per-fit one and amortizes rows across fits too.
  std::unique_ptr<SharedGramCache> owned;
  SharedGramCache* shared = cache;
  if (shared == nullptr && config_.share_kernel_cache) {
    const std::size_t budget_rows =
        SharedGramCache::rows_for_budget(X.rows(), config_.shared_cache_bytes);
    owned = std::make_unique<SharedGramCache>(
        X, config_.kernel, std::min(budget_rows, X.rows()));
    shared = owned.get();
  }

  plan_.reset();
  machines_.assign(tasks.size(), BinarySvm{});
  auto train_pair = [&](std::size_t idx) {
    const auto& task = tasks[idx];
    const auto& rows_a = rows_by_class[static_cast<std::size_t>(task.a)];
    const auto& rows_b = rows_by_class[static_cast<std::size_t>(task.b)];
    XDMODML_CHECK(!rows_a.empty() && !rows_b.empty(),
                  "one-vs-one training requires samples in every class");
    std::vector<std::size_t> rows;
    rows.reserve(rows_a.size() + rows_b.size());
    rows.insert(rows.end(), rows_a.begin(), rows_a.end());
    rows.insert(rows.end(), rows_b.begin(), rows_b.end());
    std::vector<signed char> labels(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      labels[i] = i < rows_a.size() ? 1 : -1;
    }
    double c_pos = 1.0;
    double c_neg = 1.0;
    if (!config_.class_weights.empty()) {
      XDMODML_CHECK(config_.class_weights.size() ==
                        static_cast<std::size_t>(num_classes),
                    "class_weights must have one entry per class");
      c_pos = config_.class_weights[static_cast<std::size_t>(task.a)];
      c_neg = config_.class_weights[static_cast<std::size_t>(task.b)];
    }
    // With an external cache, X is itself a subset of the cache's
    // matrix: compose the pair's rows through cache_rows so machines
    // slice the right full-matrix rows, while the gather stays in
    // X-space.
    std::vector<std::size_t> full_rows;
    if (cache != nullptr) {
      full_rows.reserve(rows.size());
      for (const auto r : rows) full_rows.push_back(cache_rows[r]);
    }
    machines_[idx].fit(X.gather_rows(rows), labels, config_, task.seed,
                       c_pos, c_neg, shared,
                       cache != nullptr ? full_rows : rows);
    // The model's pool below replaces the machine's own; only its
    // fit_rows_ are needed to build it.
    machines_[idx].pool_.reset();
  };
  if (config_.parallel) {
    ThreadPool::global().parallel_for(0, tasks.size(), train_pair);
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) train_pair(i);
  }

  // Store each support vector once: the pool takes training rows in
  // order of first use, keyed by row id, so no row is hashed.
  constexpr auto kUnset = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> pool_row(X.rows(), kUnset);
  std::vector<double> rows;
  std::uint32_t unique = 0;
  std::vector<std::vector<std::uint32_t>> pool_idx(tasks.size());
  for (std::size_t m = 0; m < tasks.size(); ++m) {
    const auto& rows_a = rows_by_class[static_cast<std::size_t>(tasks[m].a)];
    const auto& rows_b = rows_by_class[static_cast<std::size_t>(tasks[m].b)];
    for (const auto p : machines_[m].fit_rows_) {
      // The pair's rows are class a's, then class b's (train_pair).
      const std::size_t r =
          p < rows_a.size() ? rows_a[p] : rows_b[p - rows_a.size()];
      if (pool_row[r] == kUnset) {
        pool_row[r] = unique++;
        rows.insert(rows.end(), X.row(r).begin(), X.row(r).end());
      }
      pool_idx[m].push_back(pool_row[r]);
    }
  }
  share_pool(rows, X.cols(), std::move(pool_idx));
}

namespace {

// Every machine's decision value for one query through the plan, in
// machine order: kernel_row, then the decision_value chains back to back
// (consecutive machines' chains overlap; a sigmoid between them would
// not let them).
std::vector<double> plan_decisions(const SvmInferencePlan& plan,
                                   std::span<const double> x) {
  std::vector<double> krow(plan.unique_support_vectors());
  plan.kernel_row(x, krow);
  std::vector<double> decisions(plan.num_machines());
  for (std::size_t m = 0; m < decisions.size(); ++m) {
    decisions[m] = plan.decision_value(m, krow);
  }
  return decisions;
}

// Every read of a decision value on the way to a prediction goes through
// here.  A kernel that overflowed (the RBF expansion reading inf - inf, a
// polynomial's power reaching inf) makes the value NaN or infinite, and
// std::min/std::max and the coupling would turn that into a plausible
// uniform answer; the query fails instead, naming the machine.
double finite_decision(double decision, std::size_t a, std::size_t b) {
  if (!std::isfinite(decision)) {
    throw ComputeError("non-finite decision value of machine (" +
                       std::to_string(a) + ", " + std::to_string(b) + ")");
  }
  return decision;
}

// predict_proba from decision values, machines in lexicographic (a, b)
// order: coupled probabilities with Platt outputs — each pairwise
// probability clipped away from {0, 1} as LIBSVM does to keep the
// coupling well-posed — and vote fractions without.
std::vector<double> proba_from(const SvmInferencePlan& plan, int classes,
                               bool probability,
                               std::span<const double> decision) {
  const auto k = static_cast<std::size_t>(classes);
  std::size_t idx = 0;
  if (probability) {
    Matrix pairwise(k, k, 0.0);
    for (std::size_t a = 0; a < k; ++a) {
      for (std::size_t b = a + 1; b < k; ++b, ++idx) {
        const auto& slice = plan.machine(idx);
        XDMODML_CHECK(slice.has_platt,
                      "probability requested without Platt fit");
        double r =
            slice.sigmoid.probability(finite_decision(decision[idx], a, b));
        r = std::min(std::max(r, 1e-7), 1.0 - 1e-7);
        pairwise(a, b) = r;
        pairwise(b, a) = 1.0 - r;
      }
    }
    return couple_pairwise_probabilities(pairwise);
  }
  std::vector<double> votes(k, 0.0);
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++idx) {
      ++votes[finite_decision(decision[idx], a, b) > 0.0 ? a : b];
    }
  }
  const double total = static_cast<double>(idx);
  for (auto& v : votes) v /= total;
  return votes;
}

// Hard one-vs-one vote label over decision values.  std::max_element
// keeps the first maximum: ties go to the lowest class index, matching
// the vote-fraction argmax of proba_from.
int vote_label(int classes, std::span<const double> decision) {
  const auto k = static_cast<std::size_t>(classes);
  std::vector<std::size_t> votes(k, 0);
  std::size_t idx = 0;
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++idx) {
      ++votes[finite_decision(decision[idx], a, b) > 0.0 ? a : b];
    }
  }
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                          votes.begin());
}

}  // namespace

std::vector<double> SvmClassifier::predict_proba(
    std::span<const double> x) const {
  const auto& plan = inference_plan();
  return proba_from(plan, num_classes_, config_.probability,
                    plan_decisions(plan, x));
}

int SvmClassifier::predict_by_votes(std::span<const double> x) const {
  return vote_label(num_classes_, plan_decisions(inference_plan(), x));
}

std::vector<int> SvmClassifier::predict_shared(
    SharedGramCache& cache, std::span<const std::size_t> rows) const {
  const auto& plan = inference_plan();
  std::vector<double> decisions(machines_.size());
  std::vector<int> labels;
  labels.reserve(rows.size());
  for (const auto r : rows) {
    // predict's labelling rule, with the decision values read off the
    // probe's cached Gram row.
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      decisions[m] = machines_[m].decision_value_cached(cache, r);
    }
    if (!config_.probability) {
      labels.push_back(vote_label(num_classes_, decisions));
      continue;
    }
    const auto proba = proba_from(plan, num_classes_, true, decisions);
    labels.push_back(static_cast<int>(
        std::max_element(proba.begin(), proba.end()) - proba.begin()));
  }
  return labels;
}

int SvmClassifier::predict(std::span<const double> x) const {
  XDMODML_CHECK(!machines_.empty(), "predict before fit");
  if (!config_.probability) return predict_by_votes(x);
  const auto proba = predict_proba(x);
  return static_cast<int>(std::max_element(proba.begin(), proba.end()) -
                          proba.begin());
}

Prediction SvmClassifier::predict_with_probability(
    std::span<const double> x) const {
  // One predict_proba call serves both the label and its probability:
  // in probability mode these are the coupled probabilities, otherwise
  // vote fractions whose argmax equals the hard-vote label (same
  // lowest-index tie rule), so label and probability always agree.
  const auto proba = predict_proba(x);
  const auto it = std::max_element(proba.begin(), proba.end());
  return {static_cast<int>(it - proba.begin()), *it};
}

namespace {

constexpr std::size_t kLanes = simd::kTileQueries;

obs::Counter& batch_counter() {
  static auto& c =
      obs::MetricsRegistry::instance().counter("svm.predict.batches");
  return c;
}

obs::Histogram& batch_histogram() {
  static auto& h =
      obs::MetricsRegistry::instance().histogram("svm.predict.batch_ns");
  return h;
}

// Shared skeleton of the fused batch overrides.  X is cut into tiles of
// kLanes rows, fanned out on the thread pool; per tile, one pool pass
// fills the lanes' kernel rows and one pass over each machine's
// coefficients reduces it for every lane.  `emit(row, decisions)` gets
// each row's decision values in machine order — the same bits
// plan_decisions returns for that row alone.
template <typename Emit>
void sweep_batch(const SvmInferencePlan& plan, const Matrix& X,
                 const Emit& emit) {
  if (X.rows() == 0) return;
  XDMODML_CHECK(X.cols() == plan.dims(), "predict_batch feature width");
  batch_counter().inc();
  obs::ScopedTimer timer(batch_histogram());
  const std::size_t machines = plan.num_machines();
  const std::size_t tiles = (X.rows() + kLanes - 1) / kLanes;
  ThreadPool::global().parallel_for_ranges(
      0, tiles, 1, [&](std::size_t lo, std::size_t hi) {
        // Scratch for one tile, reused by every tile of this chunk.
        auto tile = plan.make_tile();
        std::vector<double> lanes(machines * kLanes);      // [machine][lane]
        std::vector<double> decisions(kLanes * machines);  // [lane][machine]
        for (std::size_t t = lo; t < hi; ++t) {
          const std::size_t q0 = t * kLanes;
          const std::size_t b = std::min(kLanes, X.rows() - q0);
          plan.kernel_tile(X.row(q0).data(), b, tile);
          plan.decision_values(tile, lanes.data());
          for (std::size_t q = 0; q < b; ++q) {
            for (std::size_t m = 0; m < machines; ++m) {
              decisions[q * machines + m] = lanes[m * kLanes + q];
            }
          }
          for (std::size_t q = 0; q < b; ++q) {
            emit(q0 + q, std::span<const double>{
                             decisions.data() + q * machines, machines});
          }
        }
      });
}

}  // namespace

std::vector<int> SvmClassifier::predict_batch(const Matrix& X) const {
  const auto& plan = inference_plan();
  std::vector<int> labels(X.rows(), -1);
  sweep_batch(plan, X, [&](std::size_t row, std::span<const double> dec) {
    if (!config_.probability) {
      labels[row] = vote_label(num_classes_, dec);
    } else {
      const auto proba = proba_from(plan, num_classes_, true, dec);
      labels[row] = static_cast<int>(
          std::max_element(proba.begin(), proba.end()) - proba.begin());
    }
  });
  return labels;
}

std::vector<std::vector<double>> SvmClassifier::predict_proba_batch(
    const Matrix& X) const {
  const auto& plan = inference_plan();
  std::vector<std::vector<double>> proba(X.rows());
  sweep_batch(plan, X, [&](std::size_t row, std::span<const double> dec) {
    proba[row] = proba_from(plan, num_classes_, config_.probability, dec);
  });
  return proba;
}

std::vector<Prediction> SvmClassifier::predict_batch_with_probability(
    const Matrix& X) const {
  const auto& plan = inference_plan();
  std::vector<Prediction> out(X.rows());
  sweep_batch(plan, X, [&](std::size_t row, std::span<const double> dec) {
    const auto proba =
        proba_from(plan, num_classes_, config_.probability, dec);
    const auto it = std::max_element(proba.begin(), proba.end());
    out[row] = {static_cast<int>(it - proba.begin()), *it};
  });
  return out;
}

std::size_t SvmClassifier::total_support_vectors() const {
  std::size_t total = 0;
  for (const auto& m : machines_) total += m.num_support_vectors();
  return total;
}

void SvmClassifier::save(std::ostream& out) const {
  XDMODML_CHECK(plan_ != nullptr, "cannot save an untrained classifier");
  io::write_tag(out, "svm-ovo-v2");
  io::write_scalar(out, "classes",
                   static_cast<std::int64_t>(num_classes_));
  io::write_scalar(out, "probability",
                   static_cast<std::int64_t>(config_.probability ? 1 : 0));
  write_kernel(out, plan_->kernel());
  const auto& pool = *machines_[0].pool();
  io::write_scalar(out, "dims", static_cast<std::int64_t>(pool.dims()));
  io::write_scalar(out, "pool", static_cast<std::int64_t>(pool.size()));
  std::vector<double> row(pool.dims());
  for (std::size_t j = 0; j < pool.size(); ++j) {
    pool.row(j, row.data());
    io::write_vector(out, "sv", row);
  }
  io::write_scalar(out, "machines",
                   static_cast<std::int64_t>(machines_.size()));
  for (const auto& m : machines_) {
    io::write_index_vector(out, "sv_index", m.pool_idx_);
    io::write_vector(out, "coef", m.coef_);
    io::write_scalar(out, "rho", m.rho_);
    io::write_scalar(out, "platt_a", m.platt_.a);
    io::write_scalar(out, "platt_b", m.platt_.b);
    io::write_scalar(out, "c_positive", m.c_positive_);
    io::write_scalar(out, "c_negative", m.c_negative_);
  }
}

SvmClassifier SvmClassifier::load(std::istream& in) {
  io::TokenReader reader(in);
  const auto tag = reader.read_tag();
  XDMODML_CHECK(tag == "svm-ovo-v1" || tag == "svm-ovo-v2",
                "model stream: unknown SVM classifier version '" + tag + "'");
  SvmClassifier clf;
  // A class count below 2 (say -1, whose k(k-1)/2 is 1) would pass the
  // machine-count check and break the first prediction.
  clf.num_classes_ = reader.read_count("classes", 2);
  clf.config_.probability = reader.read_int("probability") != 0;
  const std::int64_t k = clf.num_classes_;
  const auto machine_count = k * (k - 1) / 2;
  const auto expect_machine_count = [&] {
    XDMODML_CHECK(reader.read_int("machines") == machine_count,
                  "corrupt one-vs-one machine count");
  };
  // No reserve below: a corrupt stream's count must not size an
  // allocation, and machines move cheaply as the vector grows.

  if (tag == "svm-ovo-v1") {
    expect_machine_count();
    for (std::int64_t i = 0; i < machine_count; ++i) {
      clf.machines_.push_back(BinarySvm::load(in));
      XDMODML_CHECK(clf.machines_.back().has_platt_ ||
                        !clf.config_.probability,
                    "corrupt SVM stream: machine " + std::to_string(i) +
                        " of a probability model has no Platt sigmoid");
    }
    std::vector<double> rows;
    std::vector<std::vector<std::uint32_t>> pool_idx;
    gather_by_content(clf.machines_, rows, pool_idx);
    const std::size_t dims = clf.machines_[0].pool()->dims();
    clf.share_pool(rows, dims, std::move(pool_idx));
    return clf;
  }

  const Kernel kernel = read_kernel(reader);
  const auto dims = reader.read_int("dims");
  const auto pool_rows = reader.read_int("pool");
  XDMODML_CHECK(dims > 0 && pool_rows > 0 &&
                    pool_rows <= std::numeric_limits<std::uint32_t>::max(),
                "corrupt SVM pool shape");
  std::vector<double> rows;
  for (std::int64_t j = 0; j < pool_rows; ++j) {
    const auto row = reader.read_vector("sv");
    XDMODML_CHECK(row.size() == static_cast<std::size_t>(dims),
                  "corrupt SVM support vector width");
    rows.insert(rows.end(), row.begin(), row.end());
  }
  const auto pool = std::make_shared<const SupportVectorPool>(
      rows, static_cast<std::size_t>(dims));
  expect_machine_count();
  for (std::int64_t i = 0; i < machine_count; ++i) {
    const std::string machine = "machine " + std::to_string(i);
    BinarySvm m;
    m.kernel_ = kernel;
    m.pool_ = pool;
    m.pool_idx_ = reader.read_index_vector("sv_index");
    m.coef_ = reader.read_vector("coef");
    XDMODML_CHECK(!m.coef_.empty() && m.coef_.size() == m.pool_idx_.size(),
                  "corrupt SVM coefficient count in " + machine);
    for (const auto j : m.pool_idx_) {
      XDMODML_CHECK(j < pool->size(), "corrupt SVM pool index in " + machine);
    }
    m.rho_ = reader.read_double("rho");
    m.platt_.a = reader.read_double("platt_a");
    m.platt_.b = reader.read_double("platt_b");
    m.has_platt_ = clf.config_.probability;
    m.c_positive_ = reader.read_double("c_positive");
    m.c_negative_ = reader.read_double("c_negative");
    XDMODML_CHECK(m.c_positive_ >= 0.0 && m.c_negative_ >= 0.0,
                  "corrupt SVM box bound in " + machine);
    // SMO clips every alpha into its box exactly, so a coefficient
    // outside it is corruption — one that would still serve finite,
    // wrong probabilities.
    for (const double c : m.coef_) {
      XDMODML_CHECK(c <= m.c_positive_ && -c <= m.c_negative_,
                    "corrupt SVM coefficient outside the box of " + machine);
    }
    clf.machines_.push_back(std::move(m));
  }
  clf.plan_ = SvmInferencePlan::build(clf.machines_);
  return clf;
}

SvmRegressor::SvmRegressor(SvmConfig config) : config_(config) {
  XDMODML_CHECK(config.epsilon >= 0.0, "SVR epsilon must be >= 0");
}

void SvmRegressor::fit(const Matrix& X, std::span<const double> y) {
  XDMODML_CHECK(X.rows() == y.size() && X.rows() > 0,
                "fit requires matching non-empty X and y");
  const std::size_t l = X.rows();
  const std::size_t n = 2 * l;

  // LIBSVM's EPSILON_SVR formulation: variables [α; α*], labels [+1; −1],
  // linear term [ε − y; ε + y], and the kernel extended by index mod l.
  std::vector<double> p(n);
  std::vector<signed char> labels(n);
  std::vector<double> c(n, config_.c);
  for (std::size_t i = 0; i < l; ++i) {
    p[i] = config_.epsilon - y[i];
    labels[i] = 1;
    p[i + l] = config_.epsilon + y[i];
    labels[i + l] = -1;
  }

  SmoProblem problem;
  problem.n = n;
  problem.p = p;
  problem.y = labels;
  problem.c = c;
  const GramRowEngine engine(X, config_.kernel);
  // The doubled SVR variables alias the same l samples: fill one
  // vectorized row and mirror it into the second half.
  problem.kernel_row = [&engine, l](std::size_t i, std::span<double> out) {
    engine.fill_row(i % l, out.subspan(0, l));
    std::copy_n(out.data(), l, out.data() + l);
  };
  problem.kernel_diag = [&engine, l](std::size_t i) {
    return engine.diagonal(i % l);
  };

  const SmoResult result = solve_smo(problem, config_.smo);
  rho_ = result.rho;
  kernel_ = config_.kernel;

  std::vector<std::size_t> sv_rows;
  std::vector<double> sv_coef;
  for (std::size_t i = 0; i < l; ++i) {
    const double beta = result.alpha[i] - result.alpha[i + l];
    if (beta != 0.0) {
      sv_rows.push_back(i);
      sv_coef.push_back(beta);
    }
  }
  support_vectors_ = X.gather_rows(sv_rows);
  coef_ = std::move(sv_coef);
  trained_ = true;
}

void SvmRegressor::save(std::ostream& out) const {
  XDMODML_CHECK(trained_, "cannot save an untrained regressor");
  io::write_tag(out, "svr-v1");
  write_kernel(out, kernel_);
  io::write_scalar(out, "rho", rho_);
  io::write_scalar(out, "svs",
                   static_cast<std::int64_t>(support_vectors_.rows()));
  io::write_scalar(out, "dims",
                   static_cast<std::int64_t>(support_vectors_.cols()));
  io::write_vector(out, "coef", coef_);
  for (std::size_t r = 0; r < support_vectors_.rows(); ++r) {
    io::write_vector(out, "sv", support_vectors_.row(r));
  }
}

SvmRegressor SvmRegressor::load(std::istream& in) {
  io::TokenReader reader(in);
  reader.expect("svr-v1");
  SvmRegressor svr;
  svr.kernel_ = read_kernel(reader);
  svr.rho_ = reader.read_double("rho");
  const auto svs = reader.read_int("svs");
  const auto dims = reader.read_int("dims");
  XDMODML_CHECK(svs > 0 && dims > 0, "corrupt SVR shape");
  svr.coef_ = reader.read_vector("coef");
  XDMODML_CHECK(svr.coef_.size() == static_cast<std::size_t>(svs),
                "corrupt SVR coefficient count");
  for (std::int64_t r = 0; r < svs; ++r) {
    const auto row = reader.read_vector("sv");
    XDMODML_CHECK(row.size() == static_cast<std::size_t>(dims),
                  "corrupt SVR support vector width");
    svr.support_vectors_.append_row(row);
  }
  svr.trained_ = true;
  return svr;
}

double SvmRegressor::predict(std::span<const double> x) const {
  XDMODML_CHECK(trained_, "predict before fit");
  double f = -rho_;
  for (std::size_t s = 0; s < support_vectors_.rows(); ++s) {
    f += coef_[s] * kernel_(support_vectors_.row(s), x);
  }
  return f;
}

}  // namespace xdmodml::ml
