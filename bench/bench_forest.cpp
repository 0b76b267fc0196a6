// Random-forest training perf harness: exact sort-and-scan splits vs
// histogram-binned splits over a shared BinnedDataset.
//
// Times the forest hot path and records the results as machine-readable
// JSON (BENCH_forest.json by default; override with --json=<path> or
// XDMODML_BENCH_JSON):
//   1. binning cost — one BinnedDataset build over the full training
//      table (the once-per-forest cost the hist arm amortises);
//   2. the headline 200-tree job-classification fit, exact vs hist,
//      with the OOB error of both arms (the acceptance bar: >= 2x
//      wall-clock, OOB within 1% absolute);
//   3. a tree-count sweep (50/100/200 trees) of both arms;
//   4. a feature-width sweep (8/16/full attributes) of both arms, the
//      hist arm deriving each subset from the shared codes via
//      select_features instead of re-binning.
// Every op is a median over warmed-up repeats (time_median_ms); sizes
// honour XDMODML_SCALE like every other bench.  With --metrics the rows
// carry the observability snapshot (tree.nodes, tree.hist_built,
// tree.hist_scan_bins, ... — see DESIGN.md §9/§10).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "ml/binned_dataset.hpp"
#include "ml/random_forest.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace xdmodml;
using namespace xdmodml::bench;

/// Balanced 20-application training set on the full attribute schema.
/// Raw features: trees are invariant to monotone per-feature transforms,
/// so the forest benches (unlike the SVM ones) skip standardization.
ml::Dataset make_forest_dataset(std::size_t per_class) {
  auto gen = workload::WorkloadGenerator::standard({}, 4242);
  const auto jobs = generate_table2_train(gen, per_class);
  const auto schema = supremm::AttributeSchema::full();
  return workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application(), table2_applications());
}

ml::ForestConfig forest_config(std::size_t trees, ml::SplitAlgo algo) {
  ml::ForestConfig cfg;
  cfg.num_trees = trees;
  cfg.tree.split_algo = algo;
  return cfg;
}

/// Fits one forest and returns its OOB error.
double fit_oob(const ml::Dataset& ds, const ml::ForestConfig& cfg,
               std::uint64_t seed = 7) {
  ml::RandomForestClassifier forest(cfg, seed);
  forest.fit(ds.X, ds.labels, static_cast<int>(ds.num_classes()));
  return forest.oob_error();
}

void run_experiment() {
  auto& json = BenchJsonRecorder::instance();
  const std::size_t threads = ThreadPool::global().size();

  // 100 jobs/class ≈ 2000 jobs over the 20 Table-2 applications — the
  // same fixture as the SVM benches, so the two BENCH files describe the
  // same classification problem.
  const std::size_t per_class = scaled(100);
  const std::size_t headline_trees = scaled(200);
  const auto ds = make_forest_dataset(per_class);
  const std::size_t n = ds.size();
  std::printf("=== random-forest split-search timings ===\n");
  std::printf("dataset: %zu jobs, %zu features, %zu classes, %zu threads\n\n",
              n, ds.num_features(), ds.num_classes(), threads);

  // ---- 1. binning cost ---------------------------------------------
  const auto bin_t = time_median_ms([&] {
    const ml::BinnedDataset binned(ds.X);
    benchmark::DoNotOptimize(&binned);
  });
  {
    const ml::BinnedDataset binned(ds.X);
    std::printf(
        "BinnedDataset build      : %9.2f ms  (%zu bins max, %.1f KiB)\n\n",
        bin_t.median_ms, binned.max_bins_used(),
        static_cast<double>(binned.memory_bytes()) / 1024.0);
  }
  json.record("bench_forest", "binned_build", bin_t.median_ms, n, threads,
              bin_t.repeats);

  // ---- 2. headline fit: exact vs hist ------------------------------
  double oob_exact = 0.0;
  double oob_hist = 0.0;
  const auto cfg_exact = forest_config(headline_trees, ml::SplitAlgo::kExact);
  const auto cfg_hist = forest_config(headline_trees, ml::SplitAlgo::kHist);
  const auto exact_t =
      time_median_ms([&] { oob_exact = fit_oob(ds, cfg_exact); }, 3);
  const auto hist_t =
      time_median_ms([&] { oob_hist = fit_oob(ds, cfg_hist); }, 3);
  std::printf("%zu-tree fit (%zu jobs, median of %zu):\n", headline_trees, n,
              exact_t.repeats);
  std::printf("  exact splits : %9.2f ms  (OOB %.4f)\n", exact_t.median_ms,
              oob_exact);
  std::printf("  hist splits  : %9.2f ms  (OOB %.4f)\n", hist_t.median_ms,
              oob_hist);
  std::printf("  speedup      : %9.2fx  (OOB delta %+.4f)\n\n",
              exact_t.median_ms / hist_t.median_ms, oob_hist - oob_exact);
  json.record("bench_forest", "fit200_exact", exact_t.median_ms, n, threads,
              exact_t.repeats);
  json.record("bench_forest", "fit200_hist", hist_t.median_ms, n, threads,
              hist_t.repeats);
  // OOB error in percent, recorded so the trajectory can assert parity
  // (wall_ms carries the value; these rows are accuracy, not time).
  json.record("bench_forest", "oob200_exact_pct", 100.0 * oob_exact, n,
              threads, exact_t.repeats);
  json.record("bench_forest", "oob200_hist_pct", 100.0 * oob_hist, n, threads,
              hist_t.repeats);

  // ---- 3. tree-count sweep -----------------------------------------
  std::printf("tree-count sweep (median of 3):\n");
  for (const std::size_t base : {50, 100, 200}) {
    const std::size_t trees = scaled(static_cast<std::size_t>(base));
    const auto ce = forest_config(trees, ml::SplitAlgo::kExact);
    const auto ch = forest_config(trees, ml::SplitAlgo::kHist);
    const auto te = time_median_ms([&] { fit_oob(ds, ce); }, 3);
    const auto th = time_median_ms([&] { fit_oob(ds, ch); }, 3);
    std::printf("  %4zu trees: exact %9.2f ms, hist %9.2f ms  (%.2fx)\n",
                trees, te.median_ms, th.median_ms,
                te.median_ms / th.median_ms);
    json.record("bench_forest", "trees" + std::to_string(base) + "_exact",
                te.median_ms, n, threads, te.repeats);
    json.record("bench_forest", "trees" + std::to_string(base) + "_hist",
                th.median_ms, n, threads, th.repeats);
  }
  std::printf("\n");

  // ---- 4. feature-width sweep --------------------------------------
  // The hist arm reuses the full-table codes: each width's dataset is a
  // select_features view of the one shared BinnedDataset, the same path
  // the predictor-sweep experiment (Figure 6) takes per cutoff.
  const auto shared = std::make_shared<const ml::BinnedDataset>(ds.X);
  std::vector<std::size_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  const std::size_t sweep_trees = scaled(100);
  std::printf("feature-width sweep (%zu trees, median of 3):\n", sweep_trees);
  for (const std::size_t width : {std::size_t{8}, std::size_t{16},
                                  ds.num_features()}) {
    if (width > ds.num_features()) continue;
    std::vector<std::size_t> keep(width);
    std::iota(keep.begin(), keep.end(), 0);
    const auto sub = ds.select_features(keep);
    const auto ce = forest_config(sweep_trees, ml::SplitAlgo::kExact);
    const auto ch = forest_config(sweep_trees, ml::SplitAlgo::kHist);
    const auto te = time_median_ms([&] { fit_oob(sub, ce); }, 3);
    const auto th = time_median_ms(
        [&] {
          const auto sub_binned = std::make_shared<const ml::BinnedDataset>(
              shared->select_features(keep));
          ml::RandomForestClassifier forest(ch, 7);
          forest.fit_rows(sub.X, sub.labels,
                          static_cast<int>(sub.num_classes()), all_rows,
                          sub_binned);
        },
        3);
    std::printf("  %4zu features: exact %9.2f ms, hist %9.2f ms  (%.2fx)\n",
                width, te.median_ms, th.median_ms,
                te.median_ms / th.median_ms);
    json.record("bench_forest", "width" + std::to_string(width) + "_exact",
                te.median_ms, n, threads, te.repeats);
    json.record("bench_forest", "width" + std::to_string(width) + "_hist",
                th.median_ms, n, threads, th.repeats);
  }
  json.write();
}

void bm_forest_fit_exact(benchmark::State& state) {
  const auto ds = make_forest_dataset(20);
  const auto cfg = forest_config(20, ml::SplitAlgo::kExact);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_oob(ds, cfg));
  }
}
BENCHMARK(bm_forest_fit_exact)->Unit(benchmark::kMillisecond);

void bm_forest_fit_hist(benchmark::State& state) {
  const auto ds = make_forest_dataset(20);
  const auto cfg = forest_config(20, ml::SplitAlgo::kHist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_oob(ds, cfg));
  }
}
BENCHMARK(bm_forest_fit_hist)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto& json = xdmodml::bench::BenchJsonRecorder::instance();
  json.parse_args(argc, argv);
  if (!json.enabled()) json.set_path("BENCH_forest.json");
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
