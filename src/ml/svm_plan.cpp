#include "ml/svm_plan.hpp"

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

namespace {

constexpr std::size_t kLanes = simd::kTileQueries;

struct PlanMetrics {
  obs::Gauge& unique_svs;
  obs::Gauge& total_svs;
  obs::Gauge& dedup_ratio_x1000;
  obs::Gauge& pool_bytes;
  obs::Counter& builds;

  static PlanMetrics& instance() {
    auto& reg = obs::MetricsRegistry::instance();
    static PlanMetrics m{reg.gauge("svm.plan.unique_svs"),
                         reg.gauge("svm.plan.total_svs"),
                         reg.gauge("svm.plan.dedup_ratio_x1000"),
                         reg.gauge("svm.plan.pool_bytes"),
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

SvmInferencePlan::SvmInferencePlan(
    std::shared_ptr<const SupportVectorPool> pool, const Kernel& kernel)
    : engine_(std::move(pool), kernel) {}

std::shared_ptr<const SvmInferencePlan> SvmInferencePlan::build(
    std::span<const BinarySvm> machines) {
  XDMODML_CHECK(!machines.empty() && machines[0].pool() != nullptr,
                "inference plan needs trained machines");

  auto plan = std::shared_ptr<SvmInferencePlan>(
      new SvmInferencePlan(machines[0].pool(), machines[0].kernel()));
  const Kernel& kern = plan->kernel();

  // Every one-vs-one machine of a model shares one kernel and one pool;
  // a mixed set cannot share a pool row sweep.
  plan->machines_.reserve(machines.size());
  for (const auto& m : machines) {
    const auto& k = m.kernel();
    XDMODML_CHECK(k.type == kern.type && k.gamma == kern.gamma &&
                      k.degree == kern.degree && k.coef0 == kern.coef0,
                  "inference plan requires one kernel across machines");
    XDMODML_CHECK(m.pool().get() == &plan->engine_.pool(),
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
  metrics.unique_svs.set(
      static_cast<std::int64_t>(plan->unique_support_vectors()));
  metrics.total_svs.set(static_cast<std::int64_t>(plan->total_));
  metrics.dedup_ratio_x1000.set(
      static_cast<std::int64_t>(plan->dedup_ratio() * 1000.0));
  metrics.pool_bytes.set(static_cast<std::int64_t>(plan->pool_bytes()));
  metrics.builds.inc();
  return plan;
}

double SvmInferencePlan::dedup_ratio() const {
  return static_cast<double>(total_) /
         static_cast<double>(unique_support_vectors());
}

std::size_t SvmInferencePlan::pool_bytes() const {
  return unique_support_vectors() * dims() * sizeof(double);
}

void SvmInferencePlan::kernel_row(std::span<const double> x,
                                  std::span<double> out) const {
  engine_.fill_row_for(x, out);
  count_queries(1, unique_support_vectors());
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
  tile.queries_t.assign(dims() * kLanes, 0.0);
  tile.x_sq.assign(kLanes, 0.0);
  tile.krows.assign(simd::panel_rows(unique_support_vectors()) * kLanes, 0.0);
  return tile;
}

void SvmInferencePlan::kernel_tile(const double* queries, std::size_t b,
                                   Tile& tile) const {
  const std::size_t unique = unique_support_vectors();
  const std::size_t d = dims();
  XDMODML_CHECK(b >= 1 && b <= kLanes, "kernel_tile takes 1 to 8 queries");
  XDMODML_CHECK(tile.krows.size() == simd::panel_rows(unique) * kLanes &&
                    tile.queries_t.size() == d * kLanes,
                "kernel_tile scratch from another plan");
  count_queries(b, unique);
  // Transpose the block into feature-major lanes; unused lanes are the
  // zero vector.
  for (std::size_t q = 0; q < kLanes; ++q) {
    const double* x = q < b ? queries + q * d : nullptr;
    for (std::size_t f = 0; f < d; ++f) {
      tile.queries_t[f * kLanes + q] = x != nullptr ? x[f] : 0.0;
    }
    tile.x_sq[q] = x != nullptr ? engine_.probe_sq_norm(x) : 0.0;
  }
  engine_.fill_tile(tile.queries_t.data(), tile.x_sq.data(),
                    tile.krows.data());
}

void SvmInferencePlan::decision_values(const Tile& tile, double* out) const {
  simd::ovo_reduce_tile(tile.krows.data(), ovo_.data(), ovo_.size(), out);
}

}  // namespace xdmodml::ml
