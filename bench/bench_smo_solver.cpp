// SMO / Gram-row engine perf harness.
//
// Times the training hot path three ways and records the results as
// machine-readable JSON (BENCH_smo.json by default; override with
// --json=<path> or XDMODML_BENCH_JSON):
//   1. kernel-row fill — the scalar Kernel::operator() loop vs the
//      norm-cached GramRowEngine on the SIMD microkernels (warm), cold
//      (engine construction included), and with the microkernel ISA
//      forced to scalar to isolate the AVX2 contribution;
//   2. SMO shrinking at training scale: the 20-class one-vs-one fit at
//      1 000 jobs per class with one kernel cache per machine, shrinking
//      on vs off in alternating order (XDMODML_SCALE=5 runs the paper's
//      5 000 per class, one pair);
//   3. the paper's 20-class one-vs-one RBF fit (γ = 0.1, C = 1000) at
//      100 jobs per class on the default path (engine, shared cache,
//      shrinking).
// Sections 1 and 3 record medians over warmed-up repeats
// (time_median_ms); section 2 records the median of its cold single
// fits.  The JSON rows carry the repeat count.  Sizes honour
// XDMODML_SCALE like every other bench.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "ml/svm.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace xdmodml;
using namespace xdmodml::bench;

/// Balanced, standardized 20-application training set.
ml::Dataset make_table2_dataset(std::size_t per_class) {
  auto gen = workload::WorkloadGenerator::standard({}, 4242);
  const auto jobs = generate_table2_train(gen, per_class);
  const auto schema = supremm::AttributeSchema::full();
  auto ds = workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application(), table2_applications());
  ml::Standardizer std_;
  std_.fit(ds.X);
  ds.X = std_.transform(ds.X);
  return ds;
}

void run_experiment() {
  auto& json = BenchJsonRecorder::instance();
  const std::size_t threads = ThreadPool::global().size();
  const auto kernel = ml::Kernel::rbf(0.1);

  // 100 jobs/class ≈ 2000 jobs — the same order as the paper's training
  // sets, and large enough that kernel work (which scales ~n² per
  // machine) dominates the fixed per-machine solver overhead.
  const std::size_t per_class = scaled(100);
  const auto ds = make_table2_dataset(per_class);
  const std::size_t n = ds.size();
  std::printf("=== SMO solver / Gram-row engine timings ===\n");
  std::printf(
      "dataset: %zu jobs, %zu features, %zu classes, %zu threads, "
      "simd=%s\n\n",
      n, ds.num_features(), ds.num_classes(), threads,
      std::string(simd::isa_name(simd::active())).c_str());

  // ---- 1. kernel-row fill: scalar vs engine ------------------------
  std::vector<double> row(n);
  const auto scalar_t = time_median_ms([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const auto xi = ds.X.row(i);
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = kernel(xi, ds.X.row(j));
      }
      benchmark::DoNotOptimize(row.data());
    }
  });
  // Cold = engine construction (norm cache pass) + one full sweep.
  const auto cold_t = time_median_ms([&] {
    const ml::GramRowEngine engine(ds.X, kernel);
    for (std::size_t i = 0; i < n; ++i) {
      engine.fill_row(i, row);
      benchmark::DoNotOptimize(row.data());
    }
  });
  const ml::GramRowEngine engine(ds.X, kernel);
  const auto sweep_once = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      engine.fill_row(i, row);
      benchmark::DoNotOptimize(row.data());
    }
  };
  const auto warm_t = time_median_ms(sweep_once);
  // Same engine with the microkernels pinned to the scalar table —
  // isolates the AVX2/FMA contribution from the norm-cache win.
  TimedRuns nosimd_t;
  const simd::Isa active_isa = simd::active();
  if (simd::set_active(simd::Isa::kScalar)) {
    nosimd_t = time_median_ms(sweep_once);
    simd::set_active(active_isa);
  }
  std::printf("full Gram sweep (%zu rows x %zu cols, median of %zu):\n", n, n,
              warm_t.repeats);
  std::printf("  scalar kernel loop   : %9.2f ms\n", scalar_t.median_ms);
  std::printf("  engine, scalar isa   : %9.2f ms  (%.2fx)\n",
              nosimd_t.median_ms, scalar_t.median_ms / nosimd_t.median_ms);
  std::printf("  engine, cold         : %9.2f ms  (%.2fx)\n", cold_t.median_ms,
              scalar_t.median_ms / cold_t.median_ms);
  std::printf("  engine, warm norms   : %9.2f ms  (%.2fx)\n\n",
              warm_t.median_ms, scalar_t.median_ms / warm_t.median_ms);
  json.record("bench_smo_solver", "gram_sweep_scalar", scalar_t.median_ms, n,
              threads, scalar_t.repeats);
  json.record("bench_smo_solver", "gram_sweep_engine_scalar_isa",
              nosimd_t.median_ms, n, threads, nosimd_t.repeats);
  json.record("bench_smo_solver", "gram_sweep_engine_cold", cold_t.median_ms,
              n, threads, cold_t.repeats);
  json.record("bench_smo_solver", "gram_sweep_engine_warm", warm_t.median_ms,
              n, threads, warm_t.repeats);

  // ---- 2. SMO shrinking at training scale --------------------------
  // One kernel cache per machine, as LIBSVM keeps it: this solver
  // computes full-length rows, so shrinking can save only the selection
  // and gradient loops, which grow with the machine's row count.  The
  // arms alternate which fits first so host drift favours neither.
  {
    const std::size_t big_per_class = scaled(1000);
    const auto big = make_table2_dataset(big_per_class);
    const std::size_t pairs = big_per_class >= 5000 ? 1 : 3;
    std::vector<double> on_ms;
    std::vector<double> off_ms;
    for (std::size_t r = 0; r < 2 * pairs; ++r) {
      const bool shrinking = (r / 2 + r) % 2 == 0;  // on,off then off,on
      ml::SvmConfig cfg;
      cfg.share_kernel_cache = false;
      cfg.smo.shrinking = shrinking;
      const auto t = time_median_ms(
          [&] {
            ml::SvmClassifier clf(cfg);
            clf.fit(big.X, big.labels, static_cast<int>(big.num_classes()));
          },
          1, 0);
      (shrinking ? on_ms : off_ms).push_back(t.median_ms);
    }
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    std::printf(
        "20-class fit, one kernel cache per machine (%zu jobs, median of "
        "%zu alternating fits):\n",
        big.size(), pairs);
    for (const auto& [name, ms] : {std::pair{"on ", &on_ms},
                                   std::pair{"off", &off_ms}}) {
      std::printf("  shrinking %s: %9.0f ms  (fits:", name, median(*ms));
      for (const double t : *ms) std::printf(" %.0f", t);
      std::printf(")\n");
    }
    std::printf("\n");
    json.record("bench_smo_solver", "ovo20_fit_permachine_shrink",
                median(on_ms), big.size(), threads, pairs);
    json.record("bench_smo_solver", "ovo20_fit_permachine_noshrink",
                median(off_ms), big.size(), threads, pairs);
  }

  // ---- 3. 20-class one-vs-one fit on the default path --------------
  // Probability mode on (the default and the paper's Figures 1–4
  // workflow): every machine also trains Platt CV folds, so the shared
  // cache amortises each Gram row across machine + folds.
  const auto ovo_engine_t = time_median_ms(
      [&] {
        ml::SvmClassifier clf;
        clf.fit(ds.X, ds.labels, static_cast<int>(ds.num_classes()));
      },
      3);
  std::printf(
      "20-class one-vs-one RBF fit (%zu jobs, %zu machines, median of "
      "%zu): %.2f ms\n\n",
      n, ds.num_classes() * (ds.num_classes() - 1) / 2,
      ovo_engine_t.repeats, ovo_engine_t.median_ms);
  json.record("bench_smo_solver", "ovo20_fit_engine", ovo_engine_t.median_ms,
              n, threads, ovo_engine_t.repeats);
  json.write();
}

void bm_gram_row_engine(benchmark::State& state) {
  const auto ds = make_table2_dataset(20);
  const ml::GramRowEngine engine(ds.X, ml::Kernel::rbf(0.1));
  std::vector<double> row(ds.size());
  std::size_t i = 0;
  for (auto _ : state) {
    engine.fill_row(i, row);
    benchmark::DoNotOptimize(row.data());
    i = (i + 1) % ds.size();
  }
}
BENCHMARK(bm_gram_row_engine)->Unit(benchmark::kMicrosecond);

void bm_gram_row_scalar(benchmark::State& state) {
  const auto ds = make_table2_dataset(20);
  const auto kernel = ml::Kernel::rbf(0.1);
  std::vector<double> row(ds.size());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto xi = ds.X.row(i);
    for (std::size_t j = 0; j < ds.size(); ++j) {
      row[j] = kernel(xi, ds.X.row(j));
    }
    benchmark::DoNotOptimize(row.data());
    i = (i + 1) % ds.size();
  }
}
BENCHMARK(bm_gram_row_scalar)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  auto& json = xdmodml::bench::BenchJsonRecorder::instance();
  json.parse_args(argc, argv);
  if (!json.enabled()) json.set_path("BENCH_smo.json");
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
