#include "ml/svm_plan.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

namespace {

constexpr std::size_t kLanes = simd::kTileQueries;

// Mirrors kernel.cpp: integral degrees up to this bound use
// exponentiation by squaring (bit-identical to the scalar kernel path).
constexpr double kMaxIntegralDegree = 64.0;

struct PlanMetrics {
  obs::Gauge& unique_svs;
  obs::Gauge& total_svs;
  obs::Gauge& dedup_ratio_x1000;
  obs::Gauge& pool_bytes;
  obs::Gauge& precision_bits;
  obs::Counter& builds;

  static PlanMetrics& instance() {
    auto& reg = obs::MetricsRegistry::instance();
    static PlanMetrics m{reg.gauge("svm.plan.unique_svs"),
                         reg.gauge("svm.plan.total_svs"),
                         reg.gauge("svm.plan.dedup_ratio_x1000"),
                         reg.gauge("svm.plan.pool_bytes"),
                         reg.gauge("svm.plan.precision_bits"),
                         reg.counter("svm.plan.builds")};
    return m;
  }
};

// svm.predict.queries / .kernel_row_elements: one tick per query served
// through kernel_row or a kernel_tile lane it fills.
void count_queries(std::size_t queries, std::size_t unique) {
  static auto& queries_counter =
      obs::MetricsRegistry::instance().counter("svm.predict.queries");
  static auto& elements_counter =
      obs::MetricsRegistry::instance().counter(
          "svm.predict.kernel_row_elements");
  queries_counter.inc(queries);
  elements_counter.inc(queries * unique);
}

}  // namespace

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

std::shared_ptr<const SvmInferencePlan> SvmInferencePlan::build(
    std::span<const BinarySvm> machines) {
  XDMODML_CHECK(!machines.empty() && machines[0].pool() != nullptr,
                "inference plan needs trained machines");

  auto plan = std::shared_ptr<SvmInferencePlan>(new SvmInferencePlan());
  plan->kernel_ = machines[0].kernel();
  plan->pool_ = machines[0].pool();
  plan->dims_ = plan->pool_->dims();
  plan->unique_ = plan->pool_->size();
  const Kernel& kern = plan->kernel_;
  auto& rk = plan->row_kernel_;
  rk.gamma = kern.gamma;
  rk.coef0 = kern.coef0;
  if (kern.type == Kernel::Type::kRbf) {
    rk.kind = simd::RowKernel::Kind::kRbf;
  } else if (kern.type == Kernel::Type::kPolynomial && kern.degree > 0.0 &&
             kern.degree <= kMaxIntegralDegree &&
             kern.degree == std::floor(kern.degree)) {
    rk.kind = simd::RowKernel::Kind::kPolyPowi;
    rk.degree = static_cast<std::uint64_t>(kern.degree);
  }

  // Every one-vs-one machine of a model shares one kernel and one pool;
  // a mixed set cannot share a pool row sweep.
  plan->machines_.reserve(machines.size());
  for (const auto& m : machines) {
    const auto& k = m.kernel();
    XDMODML_CHECK(k.type == kern.type && k.gamma == kern.gamma &&
                      k.degree == kern.degree && k.coef0 == kern.coef0,
                  "inference plan requires one kernel across machines");
    XDMODML_CHECK(m.pool() == plan->pool_,
                  "inference plan requires one support-vector pool");
    plan->total_ += m.num_support_vectors();
    MachineSlice slice;
    slice.sv_pool_idx.assign(m.pool_indices().begin(),
                             m.pool_indices().end());
    slice.coef.assign(m.coefficients().begin(), m.coefficients().end());
    slice.rho = m.rho();
    slice.has_platt = m.has_probability();
    if (slice.has_platt) slice.sigmoid = m.sigmoid();
    plan->machines_.push_back(std::move(slice));
  }
  for (const auto& slice : plan->machines_) {
    plan->ovo_.push_back({slice.sv_pool_idx.data(), slice.coef.data(),
                          slice.coef.size(), slice.rho});
  }

  auto& metrics = PlanMetrics::instance();
  metrics.unique_svs.set(static_cast<std::int64_t>(plan->unique_));
  metrics.total_svs.set(static_cast<std::int64_t>(plan->total_));
  metrics.dedup_ratio_x1000.set(
      static_cast<std::int64_t>(plan->dedup_ratio() * 1000.0));
  metrics.pool_bytes.set(static_cast<std::int64_t>(plan->pool_bytes()));
  metrics.precision_bits.set(64);
  metrics.builds.inc();
  return plan;
}

double SvmInferencePlan::dedup_ratio() const {
  return unique_ == 0 ? 0.0
                      : static_cast<double>(total_) /
                            static_cast<double>(unique_);
}

std::size_t SvmInferencePlan::pool_bytes() const {
  return unique_ * dims_ * sizeof(double);
}

double SvmInferencePlan::query_sq_norm(const double* x) const {
  return row_kernel_.kind == simd::RowKernel::Kind::kRbf
             ? simd::squared_norm(x, dims_)
             : 0.0;
}

void SvmInferencePlan::finish_pow(double* out, std::size_t n,
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

void SvmInferencePlan::kernel_row(std::span<const double> x,
                                  std::span<double> out) const {
  XDMODML_CHECK(x.size() == dims_, "kernel_row probe width mismatch");
  XDMODML_CHECK(out.size() >= unique_, "kernel_row output too small");
  count_queries(1, unique_);
  simd::kernel_row_panels(x.data(), query_sq_norm(x.data()), dims_,
                          pool_->panels(), pool_->sq_norms(), unique_,
                          row_kernel_, out.data());
  finish_pow(out.data(), unique_, 1);
}

double SvmInferencePlan::decision_value(std::size_t idx,
                                        std::span<const double> krow) const {
  const MachineSlice& slice = machines_[idx];
  double f = -slice.rho;
  const std::size_t svs = slice.sv_pool_idx.size();
  for (std::size_t s = 0; s < svs; ++s) {
    f += slice.coef[s] * krow[slice.sv_pool_idx[s]];
  }
  return f;
}

SvmInferencePlan::Tile SvmInferencePlan::make_tile() const {
  Tile tile;
  tile.queries_t.assign(dims_ * kLanes, 0.0);
  tile.x_sq.assign(kLanes, 0.0);
  tile.krows.assign(simd::panel_rows(unique_) * kLanes, 0.0);
  return tile;
}

void SvmInferencePlan::kernel_tile(const double* queries, std::size_t b,
                                   Tile& tile) const {
  XDMODML_CHECK(b >= 1 && b <= kLanes, "kernel_tile takes 1 to 8 queries");
  XDMODML_CHECK(tile.krows.size() == simd::panel_rows(unique_) * kLanes &&
                    tile.queries_t.size() == dims_ * kLanes,
                "kernel_tile scratch from another plan");
  count_queries(b, unique_);
  // Transpose the block into feature-major lanes; unused lanes are the
  // zero vector.
  for (std::size_t q = 0; q < kLanes; ++q) {
    const double* x = q < b ? queries + q * dims_ : nullptr;
    for (std::size_t f = 0; f < dims_; ++f) {
      tile.queries_t[f * kLanes + q] = x != nullptr ? x[f] : 0.0;
    }
    tile.x_sq[q] = x != nullptr ? query_sq_norm(x) : 0.0;
  }
  simd::kernel_tile(tile.queries_t.data(), tile.x_sq.data(), dims_,
                    pool_->panels(), pool_->sq_norms(), unique_, row_kernel_,
                    tile.krows.data());
  for (std::size_t q = 0; q < kLanes; ++q) {
    finish_pow(tile.krows.data() + q, unique_, kLanes);
  }
}

void SvmInferencePlan::decision_values(const Tile& tile, double* out) const {
  simd::ovo_reduce_tile(tile.krows.data(), ovo_.data(), ovo_.size(), out);
}

}  // namespace xdmodml::ml
