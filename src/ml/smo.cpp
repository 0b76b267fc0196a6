#include "ml/smo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

namespace {

/// Process-wide shared-cache metrics, aggregated over every cache
/// instance (grid sweeps create one per γ).  Looked up once.
struct GramCacheMetrics {
  obs::Counter& hits =
      obs::MetricsRegistry::instance().counter("gram_cache.hits");
  obs::Counter& misses =
      obs::MetricsRegistry::instance().counter("gram_cache.misses");
  obs::Counter& evictions =
      obs::MetricsRegistry::instance().counter("gram_cache.evictions");
  obs::Gauge& resident_rows =
      obs::MetricsRegistry::instance().gauge("gram_cache.resident_rows");
  obs::Gauge& resident_bytes =
      obs::MetricsRegistry::instance().gauge("gram_cache.resident_bytes");
  obs::Counter& uncached_rows =
      obs::MetricsRegistry::instance().counter("gram_cache.uncached_rows");
  obs::Counter& alloc_failures =
      obs::MetricsRegistry::instance().counter("fail.gram_cache.alloc");
  obs::Counter& evict_retries =
      obs::MetricsRegistry::instance().counter("retry.gram_cache.evict_retry");

  static GramCacheMetrics& get() {
    static GramCacheMetrics m;
    return m;
  }
};

/// Capacity of each solve's own LRU kernel-row cache (rows of length n).
constexpr std::size_t kSolverCacheRows = 4096;

}  // namespace

KernelRowCache::KernelRowCache(
    std::size_t n, std::size_t capacity,
    std::function<void(std::size_t, std::span<double>)> compute)
    : n_(n), capacity_(std::max<std::size_t>(2, capacity)),
      compute_(std::move(compute)) {}

std::span<const double> KernelRowCache::row(std::size_t i) {
  XDMODML_CHECK(i < n_, "kernel row index out of range");
  const auto it = rows_.find(i);
  if (it != rows_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.data;
  }
  ++misses_;
  if (rows_.size() >= capacity_) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    rows_.erase(victim);
  }
  lru_.push_front(i);
  Entry entry;
  entry.data.resize(n_);
  compute_(i, entry.data);
  entry.lru_it = lru_.begin();
  auto [pos, inserted] = rows_.emplace(i, std::move(entry));
  (void)inserted;
  return pos->second.data;
}

void SharedGramCache::Row::gather(std::span<const std::size_t> idx,
                                  std::span<double> out) const {
  const float* r = data_.data();
  for (std::size_t t = 0; t < idx.size(); ++t) {
    out[t] = static_cast<double>(r[idx[t]]);
  }
}

double SharedGramCache::Row::dot_at(std::span<const std::size_t> idx,
                                    std::span<const double> coef) const {
  const float* r = data_.data();
  double f = 0.0;
  for (std::size_t s = 0; s < idx.size(); ++s) {
    f += coef[s] * static_cast<double>(r[idx[s]]);
  }
  return f;
}

SharedGramCache::SharedGramCache(const Matrix& X, Kernel kernel,
                                 std::size_t capacity_rows)
    : engine_(X, kernel),
      capacity_(std::max<std::size_t>(2, capacity_rows)),
      complete_(capacity_ >= X.rows()),
      slots_(complete_ ? X.rows() : 0) {
  diag_.resize(X.rows());
  for (std::size_t i = 0; i < X.rows(); ++i) diag_[i] = engine_.diagonal(i);
  if (complete_) owned_.resize(X.rows());
}

SharedGramCache::~SharedGramCache() {
  auto& metrics = GramCacheMetrics::get();
  const std::size_t resident = complete_ ? published_ : rows_.size();
  metrics.resident_rows.add(-static_cast<std::int64_t>(resident));
  metrics.resident_bytes.add(
      -static_cast<std::int64_t>(resident * row_bytes()));
}

std::size_t SharedGramCache::rows_for_budget(std::size_t n,
                                             std::size_t budget_bytes) {
  XDMODML_CHECK(n > 0, "rows_for_budget requires a non-empty matrix");
  return std::max<std::size_t>(2, budget_bytes / (n * sizeof(float)));
}

SharedGramCache::RowPtr SharedGramCache::compute_row(std::size_t i) const {
  // The engine always emits doubles; the row narrows once at fill time
  // so every later reuse reads half the bytes.  This is the only place a
  // row payload is built — the cached, uncached and retry paths all
  // share it, which is what makes the degraded modes bit-identical to
  // the healthy one.
  std::vector<double> wide(engine_.rows());
  engine_.fill_row(i, wide);
  auto fresh = std::make_shared<Row>();
  fresh->data_.resize(wide.size());
  for (std::size_t j = 0; j < wide.size(); ++j) {
    fresh->data_[j] = static_cast<float>(wide[j]);
  }
  return fresh;
}

SharedGramCache::RowPtr SharedGramCache::compute_missed_row(std::size_t i) {
  try {
    XDMODML_FAILPOINT("gram_cache.alloc");
    return compute_row(i);
  } catch (const std::bad_alloc&) {
    // Allocation pressure: retry once below.
  } catch (const fp::FailpointError&) {
    // Injected stand-in for the bad_alloc above — same recovery.
  }
  auto& metrics = GramCacheMetrics::get();
  metrics.alloc_failures.inc();
  metrics.evict_retries.inc();
  // The LRU is the dominant consumer, so it sheds every resident row for
  // the retry.  A complete cache's published rows may be in use by
  // lock-free readers at any moment, so it keeps them.
  if (!complete_) evict_all();
  return compute_row(i);
}

void SharedGramCache::evict_all() {
  auto& metrics = GramCacheMetrics::get();
  std::lock_guard lock(mutex_);
  const auto dropped = static_cast<std::int64_t>(rows_.size());
  if (dropped == 0) return;
  evictions_ += rows_.size();
  metrics.evictions.inc(rows_.size());
  rows_.clear();
  lru_.clear();
  metrics.resident_rows.add(-dropped);
  metrics.resident_bytes.add(-dropped *
                             static_cast<std::int64_t>(row_bytes()));
}

SharedGramCache::RowRef SharedGramCache::row(std::size_t i) {
  XDMODML_CHECK(i < engine_.rows(), "shared kernel row index out of range");
  auto& metrics = GramCacheMetrics::get();
  // Budget-exceeded fallback: compute the row, hand it out, never touch
  // the slots or the LRU.  Slower (no reuse) but numerically
  // indistinguishable.
  if (fp::triggered("gram_cache.budget")) {
    metrics.uncached_rows.inc();
    return RowRef(compute_row(i));
  }
  if (!complete_) return lru_row(i);

  // Pairs with the release store below: a non-null slot's row is filled.
  if (const Row* resident = slots_[i].load(std::memory_order_acquire)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    metrics.hits.inc();
    return RowRef(resident);
  }
  {
    std::lock_guard lock(mutex_);
    ++misses_;
    metrics.misses.inc();
  }
  // Computed outside the lock, on this reader's thread, so misses on
  // different rows fill in parallel.
  RowPtr fresh = compute_missed_row(i);
  std::lock_guard lock(mutex_);
  // Slots change only under this lock, so a relaxed load sees any publish.
  if (const Row* won = slots_[i].load(std::memory_order_relaxed)) {
    return RowRef(won);  // lost a same-row race; still counted as a miss
  }
  const Row* mine = fresh.get();
  owned_[i] = std::move(fresh);
  slots_[i].store(mine, std::memory_order_release);
  ++published_;
  metrics.resident_rows.add(1);
  metrics.resident_bytes.add(static_cast<std::int64_t>(row_bytes()));
  return RowRef(mine);
}

SharedGramCache::RowRef SharedGramCache::lru_row(std::size_t i) {
  auto& metrics = GramCacheMetrics::get();
  {
    std::lock_guard lock(mutex_);
    const auto it = rows_.find(i);
    if (it != rows_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      metrics.hits.inc();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return RowRef(it->second.data);
    }
    ++misses_;
    metrics.misses.inc();
  }
  // Compute outside the lock so concurrent misses on different rows fill
  // in parallel; a race on the *same* row does redundant work but the
  // first insert wins and both callers see a valid row.
  RowPtr fresh = compute_missed_row(i);
  std::lock_guard lock(mutex_);
  const auto it = rows_.find(i);
  if (it != rows_.end()) {
    // Lost a same-row race: the access was already counted as a miss.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return RowRef(it->second.data);
  }
  std::int64_t delta_rows = 1;  // net resident change: insert − eviction
  if (rows_.size() >= capacity_) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    rows_.erase(victim);
    ++evictions_;
    metrics.evictions.inc();
    delta_rows = 0;
  }
  lru_.push_front(i);
  auto [pos, inserted] =
      rows_.emplace(i, Entry{std::move(fresh), lru_.begin()});
  (void)inserted;
  // Gauges aggregate across every live cache; updated under the lock we
  // still hold so they track the map exactly.
  metrics.resident_rows.add(delta_rows);
  metrics.resident_bytes.add(delta_rows *
                             static_cast<std::int64_t>(row_bytes()));
  return RowRef(pos->second.data);
}

SharedGramCache::Stats SharedGramCache::stats() const {
  std::lock_guard lock(mutex_);
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_;
  s.evictions = evictions_;
  s.resident_rows = complete_ ? published_ : rows_.size();
  s.resident_bytes = s.resident_rows * row_bytes();
  return s;
}

SmoResult solve_smo(const SmoProblem& problem, const SmoConfig& config) {
  const std::size_t n = problem.n;
  XDMODML_CHECK(n > 0, "SMO requires at least one variable");
  XDMODML_CHECK(problem.p.size() == n && problem.y.size() == n &&
                    problem.c.size() == n,
                "SMO problem vectors must all have size n");
  XDMODML_CHECK(static_cast<bool>(problem.kernel_row),
                "SMO requires a kernel_row callback");
  XDMODML_CHECK(static_cast<bool>(problem.kernel_diag),
                "SMO requires a kernel_diag callback");

  constexpr double kTau = 1e-12;
  const auto y = problem.y;
  const auto c = problem.c;

  KernelRowCache cache(n, kSolverCacheRows, problem.kernel_row);

  // Kernel diagonal (needed by second-order selection every iteration).
  std::vector<double> k_diag(n);
  for (std::size_t i = 0; i < n; ++i) k_diag[i] = problem.kernel_diag(i);

  SmoResult result;
  result.alpha.assign(n, 0.0);
  auto& alpha = result.alpha;

  // Gradient of the signed-Q objective; alpha = 0 -> G = p.
  std::vector<double> grad(problem.p.begin(), problem.p.end());

  const auto is_upper = [&](std::size_t t) { return alpha[t] >= c[t]; };
  const auto is_lower = [&](std::size_t t) { return alpha[t] <= 0.0; };

  // What the selection loops read per variable instead of deriving it at
  // every visit: the label as ±1.0, and membership of
  //   I_up  = {t : y_t > 0, α_t < C_t} ∪ {t : y_t < 0, α_t > 0},
  //   I_low = {t : y_t > 0, α_t > 0}   ∪ {t : y_t < 0, α_t < C_t}.
  // Only the two variables an iteration moves can change membership.
  std::vector<double> y_sign(n);
  std::vector<std::uint8_t> in_up(n);
  std::vector<std::uint8_t> in_low(n);
  const auto refresh_membership = [&](std::size_t t) {
    in_up[t] = (y[t] > 0 && !is_upper(t)) || (y[t] < 0 && !is_lower(t));
    in_low[t] = (y[t] > 0 && !is_lower(t)) || (y[t] < 0 && !is_upper(t));
  };
  for (std::size_t t = 0; t < n; ++t) {
    y_sign[t] = static_cast<double>(y[t]);
    refresh_membership(t);
  }

  // --- Shrinking state -----------------------------------------------
  // `active` lists the variables the working-set search and gradient
  // maintenance still touch; entries of `grad` outside it go stale and
  // are rebuilt by reconstruct_gradient.  grad_bar[t] accumulates
  // Σ_{s at upper bound} C_s y_t y_s K_ts so the rebuild is exact.
  // While nothing is shrunk, `active` is exactly 0, 1, …, n−1, and the
  // selection and gradient passes run as contiguous simd:: kernels.
  const bool shrinking = config.shrinking && n > 2;
  const std::size_t shrink_interval =
      config.shrink_interval > 0 ? config.shrink_interval
                                 : std::min<std::size_t>(n, 1000);
  std::vector<std::size_t> active(n);
  std::iota(active.begin(), active.end(), 0);
  std::vector<char> active_mask(n, 1);
  std::vector<double> grad_bar;
  if (shrinking) grad_bar.assign(n, 0.0);
  bool unshrunk = false;
  // Tallied locally (zero shared-state traffic in the loop) and pushed
  // to the registry once at the end of the solve.
  std::size_t shrink_passes = 0;
  std::size_t unshrink_events = 0;

  const auto restore_active = [&]() {
    active.resize(n);
    std::iota(active.begin(), active.end(), 0);
    std::fill(active_mask.begin(), active_mask.end(), 1);
  };

  // Rebuilds grad for inactive variables: grad_bar covers the
  // upper-bound variables, free variables (never shrunk) contribute
  // directly, zero variables contribute nothing.
  const auto reconstruct_gradient = [&]() {
    if (active.size() == n) return;
    for (std::size_t t = 0; t < n; ++t) {
      if (!active_mask[t]) grad[t] = grad_bar[t] + problem.p[t];
    }
    for (const std::size_t s : active) {
      if (is_lower(s) || is_upper(s)) continue;  // only free α contribute
      const auto row_s = cache.row(s);
      const double as = alpha[s] * y_sign[s];
      for (std::size_t t = 0; t < n; ++t) {
        if (!active_mask[t]) grad[t] += as * y_sign[t] * row_s[t];
      }
    }
  };

  // First-order max violation over I_up restricted to the active set.
  // The gradient pass below takes the same maximum as it goes; this
  // standalone pass runs only where no such pass came before.
  const auto select_i = [&](double& g_max) -> std::ptrdiff_t {
    g_max = -std::numeric_limits<double>::infinity();
    std::ptrdiff_t i = -1;
    for (const std::size_t t : active) {
      if (!in_up[t]) continue;
      const double v = -y_sign[t] * grad[t];
      if (v > g_max) {
        g_max = v;
        i = static_cast<std::ptrdiff_t>(t);
      }
    }
    return i;
  };

  // Second-order (WSS2) partner for i over I_low in the active set.
  const auto select_j = [&](std::size_t ui, double g_max,
                            std::span<const double> row_i,
                            double& g_min) -> std::ptrdiff_t {
    if (active.size() == n) {
      return simd::smo_wss2_argmin(grad.data(), y_sign.data(), in_low.data(),
                                   row_i.data(), k_diag.data(), k_diag[ui],
                                   g_max, kTau, n, &g_min);
    }
    g_min = std::numeric_limits<double>::infinity();
    double best_obj = std::numeric_limits<double>::infinity();
    std::ptrdiff_t j = -1;
    for (const std::size_t t : active) {
      if (!in_low[t]) continue;
      const double v = -y_sign[t] * grad[t];
      g_min = std::min(g_min, v);
      const double b = g_max - v;  // violation of pair (i, t)
      if (b <= 0.0) continue;
      // Curvature along the pair direction is ||φ(x_i) − φ(x_t)||²
      // regardless of the label signs.
      double a = k_diag[ui] + k_diag[t] - 2.0 * row_i[t];
      if (a <= 0.0) a = kTau;
      const double obj = -(b * b) / a;
      if (obj < best_obj) {
        best_obj = obj;
        j = static_cast<std::ptrdiff_t>(t);
      }
    }
    return j;
  };

  // Gradient maintenance over the active set, G_t += y_t (s_i K_ti +
  // s_j K_tj), fused with the next iteration's select_i: the same
  // maximum over the same order, taken once membership of the two moved
  // variables is refreshed.
  const auto update_gradient = [&](std::span<const double> row_i,
                                   std::span<const double> row_j, double si,
                                   double sj, double& g_max) -> std::ptrdiff_t {
    if (active.size() == n) {
      return simd::smo_update_argmax(grad.data(), y_sign.data(), row_i.data(),
                                     row_j.data(), si, sj, in_up.data(), n,
                                     &g_max);
    }
    g_max = -std::numeric_limits<double>::infinity();
    std::ptrdiff_t i = -1;
    for (const std::size_t t : active) {
      grad[t] += y_sign[t] * (si * row_i[t] + sj * row_j[t]);
      if (!in_up[t]) continue;
      const double v = -y_sign[t] * grad[t];
      if (v > g_max) {
        g_max = v;
        i = static_cast<std::ptrdiff_t>(t);
      }
    }
    return i;
  };

  // LIBSVM do_shrinking: compute the violation window (m, M) over the
  // active set, unshrink once when it first closes to within 10·tol,
  // then drop bound-clamped variables lying strictly outside it.
  const auto do_shrinking = [&]() {
    ++shrink_passes;
    double g_max1 = -std::numeric_limits<double>::infinity();  // max -yG, I_up
    double g_max2 = -std::numeric_limits<double>::infinity();  // max  yG, I_low
    for (const std::size_t t : active) {
      const double g = grad[t];
      if (y[t] > 0) {
        if (!is_upper(t)) g_max1 = std::max(g_max1, -g);
        if (!is_lower(t)) g_max2 = std::max(g_max2, g);
      } else {
        if (!is_upper(t)) g_max2 = std::max(g_max2, -g);
        if (!is_lower(t)) g_max1 = std::max(g_max1, g);
      }
    }
    if (!unshrunk && g_max1 + g_max2 <= config.tolerance * 10.0) {
      unshrunk = true;
      ++unshrink_events;
      reconstruct_gradient();
      restore_active();
      // Recompute the window on the now-exact full gradient before
      // shrinking against it.
      g_max1 = -std::numeric_limits<double>::infinity();
      g_max2 = -std::numeric_limits<double>::infinity();
      for (const std::size_t t : active) {
        const double g = grad[t];
        if (y[t] > 0) {
          if (!is_upper(t)) g_max1 = std::max(g_max1, -g);
          if (!is_lower(t)) g_max2 = std::max(g_max2, g);
        } else {
          if (!is_upper(t)) g_max2 = std::max(g_max2, -g);
          if (!is_lower(t)) g_max1 = std::max(g_max1, g);
        }
      }
    }
    const auto be_shrunk = [&](std::size_t t) {
      if (is_upper(t)) {
        return y[t] > 0 ? -grad[t] > g_max1 : -grad[t] > g_max2;
      }
      if (is_lower(t)) {
        return y[t] > 0 ? grad[t] > g_max2 : grad[t] > g_max1;
      }
      return false;  // free variables always stay active
    };
    for (std::size_t idx = 0; idx < active.size();) {
      const std::size_t t = active[idx];
      if (be_shrunk(t)) {
        active_mask[t] = 0;
        active[idx] = active.back();
        active.pop_back();
      } else {
        ++idx;
      }
    }
  };

  std::size_t since_shrink = 0;
  std::size_t iter = 0;
  // I_up's maximum for the coming iteration, when the last one's gradient
  // pass took it.  A shrink pass reorders and shrinks the active set, and
  // a step that moves neither alpha makes no pass, so both leave it unset.
  bool have_i = false;
  double g_max = 0.0;
  std::ptrdiff_t i = -1;
  for (; iter < config.max_iterations; ++iter) {
    if (shrinking && ++since_shrink >= shrink_interval) {
      since_shrink = 0;
      do_shrinking();
      have_i = false;
    }

    if (!have_i) i = select_i(g_max);
    have_i = false;
    std::span<const double> row_i;
    double g_min = 0.0;
    std::ptrdiff_t j = -1;
    if (i >= 0) {
      row_i = cache.row(static_cast<std::size_t>(i));
      j = select_j(static_cast<std::size_t>(i), g_max, row_i, g_min);
    }
    if (i < 0 || j < 0 || g_max - g_min < config.tolerance) {
      // Optimal on the active set.  If anything is shrunk, rebuild the
      // full gradient and re-check on all n variables before declaring
      // convergence (LIBSVM's final unshrink pass).
      if (active.size() < n) {
        ++unshrink_events;
        reconstruct_gradient();
        restore_active();
        since_shrink = 0;
        i = select_i(g_max);
        if (i >= 0) {
          row_i = cache.row(static_cast<std::size_t>(i));
          j = select_j(static_cast<std::size_t>(i), g_max, row_i, g_min);
        } else {
          j = -1;
        }
      }
      if (i < 0 || j < 0 || g_max - g_min < config.tolerance) {
        result.converged = true;
        break;
      }
    }
    const auto ui = static_cast<std::size_t>(i);
    const auto uj = static_cast<std::size_t>(j);
    const auto row_j = cache.row(uj);

    // Two-variable analytic update (LIBSVM's update rules).
    const double old_ai = alpha[ui];
    const double old_aj = alpha[uj];
    const bool was_upper_i = is_upper(ui);
    const bool was_upper_j = is_upper(uj);
    const double ci = c[ui];
    const double cj = c[uj];
    if (y[ui] != y[uj]) {
      double quad = k_diag[ui] + k_diag[uj] - 2.0 * row_i[uj];
      if (quad <= 0.0) quad = kTau;
      const double delta = (-grad[ui] - grad[uj]) / quad;
      const double diff = alpha[ui] - alpha[uj];
      alpha[ui] += delta;
      alpha[uj] += delta;
      if (diff > 0.0) {
        if (alpha[uj] < 0.0) {
          alpha[uj] = 0.0;
          alpha[ui] = diff;
        }
      } else {
        if (alpha[ui] < 0.0) {
          alpha[ui] = 0.0;
          alpha[uj] = -diff;
        }
      }
      if (diff > ci - cj) {
        if (alpha[ui] > ci) {
          alpha[ui] = ci;
          alpha[uj] = ci - diff;
        }
      } else {
        if (alpha[uj] > cj) {
          alpha[uj] = cj;
          alpha[ui] = cj + diff;
        }
      }
    } else {
      double quad = k_diag[ui] + k_diag[uj] - 2.0 * row_i[uj];
      if (quad <= 0.0) quad = kTau;
      const double delta = (grad[ui] - grad[uj]) / quad;
      const double sum = alpha[ui] + alpha[uj];
      alpha[ui] -= delta;
      alpha[uj] += delta;
      if (sum > ci) {
        if (alpha[ui] > ci) {
          alpha[ui] = ci;
          alpha[uj] = sum - ci;
        }
      } else {
        if (alpha[uj] < 0.0) {
          alpha[uj] = 0.0;
          alpha[ui] = sum;
        }
      }
      if (sum > cj) {
        if (alpha[uj] > cj) {
          alpha[uj] = cj;
          alpha[ui] = sum - cj;
        }
      } else {
        if (alpha[ui] < 0.0) {
          alpha[ui] = 0.0;
          alpha[uj] = sum;
        }
      }
    }

    refresh_membership(ui);
    refresh_membership(uj);

    // Gradient maintenance, G_t += Q_ti * dai + Q_tj * daj, which also
    // selects the next iteration's i.
    const double dai = alpha[ui] - old_ai;
    const double daj = alpha[uj] - old_aj;
    if (dai != 0.0 || daj != 0.0) {
      const double si = y_sign[ui] * dai;
      const double sj = y_sign[uj] * daj;
      i = update_gradient(row_i, row_j, si, sj, g_max);
      have_i = true;
      if (shrinking) {
        // Keep grad_bar exact across bound crossings (full-length rows
        // are available, so the update covers inactive entries too).
        if (was_upper_i != is_upper(ui)) {
          const double sign = is_upper(ui) ? 1.0 : -1.0;
          const double w = sign * ci * y_sign[ui];
          for (std::size_t t = 0; t < n; ++t) {
            grad_bar[t] += w * y_sign[t] * row_i[t];
          }
        }
        if (was_upper_j != is_upper(uj)) {
          const double sign = is_upper(uj) ? 1.0 : -1.0;
          const double w = sign * cj * y_sign[uj];
          for (std::size_t t = 0; t < n; ++t) {
            grad_bar[t] += w * y_sign[t] * row_j[t];
          }
        }
      }
    }
  }
  result.iterations = iter;
  if (iter >= config.max_iterations) {
    result.converged = false;
    if (active.size() < n) {
      ++unshrink_events;
      reconstruct_gradient();  // rho/objective need the full gradient
      restore_active();
    }
  }

  {
    auto& registry = obs::MetricsRegistry::instance();
    static auto& solves = registry.counter("smo.solves");
    static auto& iterations = registry.counter("smo.iterations");
    static auto& shrinks = registry.counter("smo.shrink_passes");
    static auto& unshrinks = registry.counter("smo.unshrink_events");
    static auto& rows_computed = registry.counter("smo.kernel_rows_computed");
    static auto& row_hits = registry.counter("smo.kernel_row_hits");
    static auto& iter_hist =
        registry.histogram("smo.iterations_per_solve", "iterations");
    solves.inc();
    iterations.inc(iter);
    shrinks.inc(shrink_passes);
    unshrinks.inc(unshrink_events);
    rows_computed.inc(cache.misses());
    row_hits.inc(cache.hits());
    iter_hist.record(iter);
  }

  // rho (decision offset): average of y_i G_i over free SVs, or the
  // midpoint of the bound interval when none are free.
  double ub = std::numeric_limits<double>::infinity();
  double lb = -std::numeric_limits<double>::infinity();
  double sum_free = 0.0;
  std::size_t nr_free = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const double yg = static_cast<double>(y[t]) * grad[t];
    if (is_upper(t)) {
      if (y[t] < 0) {
        ub = std::min(ub, yg);
      } else {
        lb = std::max(lb, yg);
      }
    } else if (is_lower(t)) {
      if (y[t] > 0) {
        ub = std::min(ub, yg);
      } else {
        lb = std::max(lb, yg);
      }
    } else {
      ++nr_free;
      sum_free += yg;
    }
  }
  result.rho = nr_free > 0 ? sum_free / static_cast<double>(nr_free)
                           : 0.5 * (ub + lb);

  double obj = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    obj += alpha[t] * (grad[t] + problem.p[t]);
  }
  result.objective = 0.5 * obj;
  return result;
}

}  // namespace xdmodml::ml
