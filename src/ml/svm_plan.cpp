#include "ml/svm_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/simd.hpp"

namespace xdmodml::ml {

namespace {

constexpr std::size_t kLanes = simd::kTileQueries;

// Mirrors kernel.cpp: integral degrees up to this bound use
// exponentiation by squaring (bit-identical to the scalar kernel path).
constexpr double kMaxIntegralDegree = 64.0;

// The active prediction mode, published once.  -1 = unselected;
// otherwise the SvmPredictMode value.  Mirrors simd.cpp's startup ISA
// selection: racing first reads all compute the same env-derived value.
std::atomic<int> g_mode{-1};

SvmPredictMode choose_startup_mode() {
  if (const char* env = std::getenv("XDMODML_SVM_PREDICT")) {
    if (const auto requested = svm_predict_mode_from_string(env)) {
      return *requested;
    }
    std::fprintf(stderr,
                 "xdmodml: XDMODML_SVM_PREDICT=%s unrecognized "
                 "(want legacy|compiled); using compiled\n",
                 env);
  }
  return SvmPredictMode::kCompiled;
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

SvmPredictMode svm_predict_mode() {
  int m = g_mode.load(std::memory_order_relaxed);
  if (m < 0) {
    m = static_cast<int>(choose_startup_mode());
    g_mode.store(m, std::memory_order_relaxed);
  }
  return static_cast<SvmPredictMode>(m);
}

void set_svm_predict_mode(SvmPredictMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

std::string_view svm_predict_mode_name(SvmPredictMode mode) {
  return mode == SvmPredictMode::kLegacy ? "legacy" : "compiled";
}

std::optional<SvmPredictMode> svm_predict_mode_from_string(
    std::string_view name) {
  if (name == "legacy") return SvmPredictMode::kLegacy;
  if (name == "compiled") return SvmPredictMode::kCompiled;
  return std::nullopt;
}

std::shared_ptr<const SvmInferencePlan> SvmInferencePlan::build(
    std::span<const BinarySvm> machines) {
  XDMODML_CHECK(!machines.empty(), "inference plan needs trained machines");

  auto plan = std::shared_ptr<SvmInferencePlan>(new SvmInferencePlan());
  plan->kernel_ = machines[0].kernel();
  plan->dims_ = machines[0].support_vectors().cols();
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

  // Every one-vs-one machine of a fit shares one kernel; a mixed set
  // cannot share a pool row sweep.
  for (const auto& m : machines) {
    const auto& k = m.kernel();
    XDMODML_CHECK(k.type == plan->kernel_.type &&
                      k.gamma == plan->kernel_.gamma &&
                      k.degree == plan->kernel_.degree &&
                      k.coef0 == plan->kernel_.coef0,
                  "inference plan requires one kernel across machines");
    XDMODML_CHECK(m.support_vectors().cols() == plan->dims_,
                  "inference plan requires one feature width");
    XDMODML_CHECK(m.num_support_vectors() > 0,
                  "inference plan requires trained machines");
    plan->total_ += m.num_support_vectors();
  }

  // Provenance keying is valid only when EVERY machine carries full-
  // matrix row indices (one fit's machines share a row keyspace; a
  // machine without provenance — e.g. fitted cache-less or loaded from
  // a v1 file — would alias index 7 of a different matrix).
  bool provenance = true;
  for (const auto& m : machines) {
    if (m.sv_full_rows().size() != m.num_support_vectors()) {
      provenance = false;
      break;
    }
  }
  plan->provenance_ = provenance;

  // Stage the unique rows row-major; content keying compares them
  // bit-exactly, and the panels are packed from them afterwards.
  const std::size_t d = plan->dims_;
  std::vector<double> staging;
  staging.reserve(machines[0].num_support_vectors() * d);
  std::unordered_map<std::size_t, std::uint32_t> by_full_row;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_content;

  auto pool_index_for = [&](const BinarySvm& m,
                            std::size_t s) -> std::uint32_t {
    const std::size_t next = staging.size() / d;
    XDMODML_CHECK(next <= 0xffffffffull, "support-vector pool too large");
    const auto row = m.support_vectors().row(s);
    if (provenance) {
      const auto [it, inserted] =
          by_full_row.try_emplace(m.sv_full_rows()[s],
                                  static_cast<std::uint32_t>(next));
      if (!inserted) return it->second;
    } else {
      auto& bucket = by_content[hash_row_bytes(row.data(), d)];
      for (const auto idx : bucket) {
        if (std::memcmp(staging.data() + idx * d, row.data(),
                        d * sizeof(double)) == 0) {
          return idx;
        }
      }
      bucket.push_back(static_cast<std::uint32_t>(next));
    }
    staging.insert(staging.end(), row.begin(), row.end());
    return static_cast<std::uint32_t>(next);
  };

  plan->machines_.reserve(machines.size());
  for (const auto& m : machines) {
    MachineSlice slice;
    const std::size_t svs = m.num_support_vectors();
    slice.sv_pool_idx.reserve(svs);
    for (std::size_t s = 0; s < svs; ++s) {
      slice.sv_pool_idx.push_back(pool_index_for(m, s));
    }
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

  // Pack the staged rows panel-major in place, so the pool is never held
  // twice; the last panel's missing rows are zero, with zero norms.
  const std::size_t unique = staging.size() / d;
  plan->unique_ = unique;
  plan->sq_norms_.assign(simd::panel_rows(unique), 0.0);
  for (std::size_t j = 0; j < unique; ++j) {
    plan->sq_norms_[j] = simd::squared_norm(staging.data() + j * d, d);
  }
  staging.resize(simd::panel_rows(unique) * d, 0.0);
  simd::pack_panels(staging.data(), unique, d);
  plan->panels_ = std::move(staging);

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
                          panels_.data(), sq_norms_.data(), unique_,
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
                    panels_.data(), sq_norms_.data(), unique_, row_kernel_,
                    tile.krows.data());
  for (std::size_t q = 0; q < kLanes; ++q) {
    finish_pow(tile.krows.data() + q, unique_, kLanes);
  }
}

void SvmInferencePlan::decision_values(const Tile& tile, double* out) const {
  simd::ovo_reduce_tile(tile.krows.data(), ovo_.data(), ovo_.size(), out);
}

}  // namespace xdmodml::ml
