// Hyper-parameter tuning — the provenance of "γ = 0.1 and C = 1000".
//
// The paper states its SVM was "tuned with γ = 0.1 and C = 1000"; this
// bench reproduces such a tuning run: a (γ, C) grid searched with
// 3-fold cross-validation on a balanced application mixture, printed as
// a CV-accuracy heat map.  The paper's cell should sit in the winning
// region.
//
// The sweep is also the perf harness for cross-grid/cross-fold kernel
// reuse: the fold assignment and standardization are hoisted out of the
// cell loop, so each γ row can share one full-matrix kernel-row cache
// across every C cell and every CV fold.  Timings for the reuse arm vs
// per-cell refits are recorded as JSON (BENCH_tuning.json by default;
// override with --json=<path> or XDMODML_BENCH_JSON).  Reuse is pure
// plumbing — the arms must produce bit-identical accuracy tables, which
// this bench verifies on every run.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.hpp"
#include "ml/cross_validation.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace xdmodml;
using namespace xdmodml::bench;

bool tables_identical(const std::vector<ml::GridPoint>& a,
                      const std::vector<ml::GridPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].gamma != b[i].gamma || a[i].c != b[i].c ||
        a[i].cv_accuracy != b[i].cv_accuracy) {
      return false;
    }
  }
  return true;
}

void run_experiment() {
  auto& json = BenchJsonRecorder::instance();
  const std::size_t threads = ThreadPool::global().size();

  auto gen = workload::WorkloadGenerator::standard({}, 1999);
  // A compact 8-application tuning set keeps the grid affordable.
  const std::vector<std::string> apps{"VASP",   "NAMD",  "GROMACS",
                                      "LAMMPS", "WRF",   "PYTHON",
                                      "GAUSSIAN", "CACTUS"};
  std::vector<workload::GeneratedJob> jobs;
  for (const auto& app : apps) {
    auto batch = gen.generate_for(app, scaled(80));
    jobs.insert(jobs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  const auto schema = supremm::AttributeSchema::full();
  const auto ds = workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application(), apps);

  const std::vector<double> gammas{0.001, 0.01, 0.1, 1.0};
  const std::vector<double> cs{1.0, 10.0, 100.0, 1000.0};
  std::printf("=== SVM (γ, C) grid search, 3-fold CV, %zu jobs, "
              "%zu applications ===\n\n",
              ds.size(), apps.size());

  // Two timed arms over the identical grid: per-cell refits (the
  // pre-reuse baseline) and the shared per-γ cache.
  ml::SvmGridSearchOptions refit;
  refit.seed = 7;
  refit.reuse_kernel_cache = false;
  ml::SvmGridSearchOptions reuse = refit;
  reuse.reuse_kernel_cache = true;

  std::vector<ml::GridPoint> points_refit;
  std::vector<ml::GridPoint> points;
  const auto refit_t = time_median_ms(
      [&] { points_refit = ml::svm_grid_search(ds, gammas, cs, refit); }, 3);
  const auto reuse_t = time_median_ms(
      [&] { points = ml::svm_grid_search(ds, gammas, cs, reuse); }, 3);
  const double refit_ms = refit_t.median_ms;
  const double reuse_ms = reuse_t.median_ms;
  json.record("bench_svm_tuning", "sweep_refit_per_cell", refit_ms,
              ds.size(), threads, refit_t.repeats);
  json.record("bench_svm_tuning", "sweep_reuse_f32", reuse_ms, ds.size(),
              threads, reuse_t.repeats);

  // Render as a γ-row / C-column heat map.
  std::vector<std::string> header{"gamma \\ C"};
  for (const double c : cs) header.push_back(format_double(c, 0));
  TextTable table(std::move(header));
  for (const double gamma : gammas) {
    std::vector<std::string> row{format_double(gamma, 3)};
    for (const double c : cs) {
      for (const auto& pt : points) {
        if (pt.gamma == gamma && pt.c == c) {
          row.push_back(format_percent(pt.cv_accuracy, 1));
        }
      }
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nbest cell: gamma=%g C=%g at %s%% CV accuracy\n",
              points.front().gamma, points.front().c,
              format_percent(points.front().cv_accuracy, 2).c_str());
  for (const auto& pt : points) {
    if (pt.gamma == 0.1 && pt.c == 1000.0) {
      std::printf("paper's cell (gamma=0.1, C=1000): %s%% — %.1f points "
                  "behind the best cell at this training size\n",
                  format_percent(pt.cv_accuracy, 2).c_str(),
                  100.0 * (points.front().cv_accuracy - pt.cv_accuracy));
    }
  }

  std::printf("\nsweep wall time: refit per cell %.0f ms | shared cache "
              "%.0f ms (%.2fx)\n",
              refit_ms, reuse_ms, refit_ms / reuse_ms);
  std::printf("accuracy tables across the arms: %s\n",
              tables_identical(points, points_refit)
                  ? "bit-identical (reuse is pure plumbing)"
                  : "MISMATCH — reuse changed results!");

  std::printf("\nnote: the optimal gamma grows with training density — a "
              "local kernel needs neighbours.  Small tuning sets favour "
              "smoother kernels (gamma <= 0.01); the paper tuned at ~100k "
              "jobs where gamma=0.1 pays off (see bench_scaling for the "
              "sample-size effect).  Re-run with XDMODML_SCALE=4 to watch "
              "the winning cell migrate toward the paper's.\n");
  json.write();
}

void bm_cv_fold(benchmark::State& state) {
  auto gen = workload::WorkloadGenerator::standard({}, 2000);
  std::vector<workload::GeneratedJob> jobs;
  for (const auto& app : {"VASP", "NAMD", "PYTHON"}) {
    auto batch = gen.generate_for(app, 50);
    jobs.insert(jobs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  const auto schema = supremm::AttributeSchema::full();
  const auto ds = workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application());
  for (auto _ : state) {
    ml::SvmConfig cfg;
    cfg.probability = false;
    auto result = ml::cross_validate(
        ds,
        [&cfg] { return std::make_unique<ml::SvmClassifier>(cfg); }, 3);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_cv_fold)->Unit(benchmark::kMillisecond);

void bm_grid_sweep(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  auto gen = workload::WorkloadGenerator::standard({}, 2001);
  std::vector<workload::GeneratedJob> jobs;
  for (const auto& app : {"VASP", "NAMD", "PYTHON", "WRF"}) {
    auto batch = gen.generate_for(app, 40);
    jobs.insert(jobs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  const auto schema = supremm::AttributeSchema::full();
  const auto ds = workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application());
  const std::vector<double> gammas{0.01, 0.1};
  const std::vector<double> cs{1.0, 10.0, 100.0};
  ml::SvmGridSearchOptions options;
  options.reuse_kernel_cache = reuse;
  for (auto _ : state) {
    auto result = ml::svm_grid_search(ds, gammas, cs, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(bm_grid_sweep)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("reuse")
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto& json = BenchJsonRecorder::instance();
  json.parse_args(argc, argv);
  if (!json.enabled()) json.set_path("BENCH_tuning.json");
  run_experiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
