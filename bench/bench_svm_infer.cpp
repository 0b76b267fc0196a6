// Compiled SVM inference plan: single-query and batched prediction
// throughput against the per-machine reference walk, SIMD vs scalar.
//
// The paper's deployment story pushes every unidentified job through a
// 20-class one-vs-one SVM (190 machines, rbf γ=0.1, C=1000).  A model
// stores each support vector once in a pool all machines index into
// (DESIGN.md §12); the plan computes a single kernel row per query over
// that pool through the SIMD microkernels and reduces each machine as a
// sparse coef-dot.  This bench trains the Table-2 model, verifies the
// plan against the per-machine reference walk (labels identical, f64
// decision values within 1e-10), reports the pool's dedup ratio, and
// times four arms:
//
//   reference_single                  — BinarySvm::decision_value per
//                                       machine, Platt, then pairwise
//                                       coupling (native ISA)
//   compiled_single / compiled_batch  — the plan (native ISA)
//   compiled_batch_scalar             — the plan, scalar microkernels
//
// Gates: the correctness checks and a pool dedup > 2x exit 1 when they
// fail; batched predict_proba should run >= 3x the reference.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "ml/svm.hpp"
#include "ml/svm_plan.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace xdmodml;
using namespace xdmodml::bench;

struct InferModel {
  ml::SvmClassifier svm;
  Matrix probes;          ///< standardized probe features
  std::size_t classes;
};

InferModel build_model(std::uint64_t seed, std::size_t per_class,
                       std::size_t n_probes) {
  auto gen = workload::WorkloadGenerator::standard({}, seed);
  const auto schema = supremm::AttributeSchema::full();
  const auto train_jobs = generate_table2_train(gen, per_class);
  const auto train = workload::build_summary_dataset(
      train_jobs, schema, supremm::label_by_application(),
      table2_applications());

  ml::Standardizer standardizer;
  const Matrix X = standardizer.fit_transform(train.X);

  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(0.1);
  cfg.c = 1000.0;
  cfg.probability = true;
  ml::SvmClassifier svm(cfg, 42);
  svm.fit(X, train.labels, static_cast<int>(train.class_names.size()));

  const auto probe_jobs = generate_table2_test(gen, n_probes);
  Matrix probes;
  for (const auto& job : probe_jobs) {
    auto row = job.summary.extract(schema);
    standardizer.transform_row(row);
    probes.append_row(row);
  }
  return {std::move(svm), std::move(probes), train.class_names.size()};
}

/// The per-machine reference walk for one query: each machine's
/// BinarySvm::decision_value through its Platt sigmoid, then pairwise
/// coupling — what the plan replaces.
std::vector<double> reference_proba(const ml::SvmClassifier& svm,
                                    std::span<const double> x) {
  const auto k = static_cast<std::size_t>(svm.num_classes());
  Matrix pairwise(k, k, 0.0);
  std::size_t idx = 0;  // machines are stored in lexicographic (a, b) order
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++idx) {
      const double r = std::clamp(
          svm.machine(idx).probability_positive(x), 1e-7, 1.0 - 1e-7);
      pairwise(a, b) = r;
      pairwise(b, a) = 1.0 - r;
    }
  }
  return ml::couple_pairwise_probabilities(pairwise);
}

/// Sums the reference walk's probabilities over every probe row.
double sweep_reference(const ml::SvmClassifier& svm, const Matrix& probes) {
  double sink = 0.0;
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    sink += reference_proba(svm, probes.row(r))[0];
  }
  return sink;
}

/// Sums predict_proba over every probe row (single-query path).
double sweep_single(const ml::SvmClassifier& svm, const Matrix& probes) {
  double sink = 0.0;
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    sink += svm.predict_proba(probes.row(r))[0];
  }
  return sink;
}

/// Sums predict_proba_batch over the probe matrix (batched path).
double sweep_batch(const ml::SvmClassifier& svm, const Matrix& probes) {
  double sink = 0.0;
  for (const auto& p : svm.predict_proba_batch(probes)) sink += p[0];
  return sink;
}

bool verify_paths(const ml::SvmClassifier& svm, const Matrix& probes) {
  const auto labels = svm.predict_batch(probes);
  for (std::size_t r = 0; r < probes.rows(); ++r) {
    const auto proba = reference_proba(svm, probes.row(r));
    const auto label = static_cast<int>(
        std::max_element(proba.begin(), proba.end()) - proba.begin());
    if (label != labels[r]) {
      std::printf("ERROR: plan and reference labels disagree on probe %zu\n",
                  r);
      return false;
    }
  }

  // Per-machine decision values on a probe sample: the plan's sparse
  // coef-dot over the shared kernel row must match the machine-by-machine
  // reference walk to 1e-10 (f64 pool).
  const auto& plan = svm.inference_plan();
  std::vector<double> krow(plan.unique_support_vectors());
  double max_diff = 0.0;
  const std::size_t sample = probes.rows() < 32 ? probes.rows() : 32;
  for (std::size_t r = 0; r < sample; ++r) {
    const auto x = probes.row(r);
    plan.kernel_row(x, krow);
    for (std::size_t m = 0; m < plan.num_machines(); ++m) {
      const double diff =
          std::abs(plan.decision_value(m, krow) -
                   svm.machine(m).decision_value(x));
      if (diff > max_diff) max_diff = diff;
    }
  }
  std::printf("max |plan - reference| decision value: %.3g over %zu "
              "probes x %zu machines\n",
              max_diff, sample, plan.num_machines());
  if (max_diff > 1e-10) {
    std::printf("ERROR: f64 decision values diverge beyond 1e-10\n");
    return false;
  }
  return true;
}

/// False when a correctness gate fails.
bool run_experiment() {
  const auto model = build_model(601, scaled(30), scaled(500));
  const auto& svm = model.svm;
  const auto& probes = model.probes;
  auto& json = BenchJsonRecorder::instance();
  const std::size_t threads = ThreadPool::global().size();
  const auto best_isa = simd::active();
  const double n = static_cast<double>(probes.rows());

  std::printf("=== compiled SVM inference: %zu classes, %zu machines, "
              "%zu probes, %zu pool thread(s), isa=%s ===\n\n",
              model.classes, svm.num_machines(), probes.rows(), threads,
              std::string(simd::isa_name(best_isa)).c_str());

  const auto& plan = svm.inference_plan();
  std::printf("plan: %zu/%zu unique SVs, dedup %.2fx, %zu KiB f64 pool\n\n",
              plan.unique_support_vectors(), plan.total_support_vectors(),
              plan.dedup_ratio(), plan.pool_bytes() / 1024);
  if (plan.dedup_ratio() <= 2.0) {
    std::printf("ERROR: dedup ratio %.2fx below the 2x acceptance gate\n",
                plan.dedup_ratio());
    return false;
  }
  if (!verify_paths(svm, probes)) return false;

  enum class Path { kReference, kSingle, kBatch };
  struct Arm {
    const char* op;
    Path path;
    simd::Isa isa;
  };
  const Arm arms[] = {
      {"reference_single", Path::kReference, best_isa},
      {"compiled_single", Path::kSingle, best_isa},
      {"compiled_batch", Path::kBatch, best_isa},
      {"compiled_batch_scalar", Path::kBatch, simd::Isa::kScalar},
  };

  TextTable table({"arm", "ms (median)", "probes/sec"});
  double reference_ms = 0.0;
  double compiled_batch_ms = 0.0;
  for (const auto& arm : arms) {
    simd::set_active(arm.isa);
    const auto t = time_median_ms(
        [&] {
          benchmark::DoNotOptimize(
              arm.path == Path::kReference ? sweep_reference(svm, probes)
              : arm.path == Path::kSingle  ? sweep_single(svm, probes)
                                           : sweep_batch(svm, probes));
        },
        /*repeats=*/3);
    simd::set_active(best_isa);
    if (std::string_view(arm.op) == "reference_single") {
      reference_ms = t.median_ms;
    }
    if (std::string_view(arm.op) == "compiled_batch") {
      compiled_batch_ms = t.median_ms;
    }
    json.record("bench_svm_infer", arm.op, t.median_ms, probes.rows(),
                arm.path == Path::kBatch ? threads : 1, t.repeats);
    table.add_row({arm.op, format_double(t.median_ms, 2),
                   format_double(n / t.median_ms * 1000.0, 0)});
  }
  std::printf("%s", table.render().c_str());

  const double speedup = reference_ms / compiled_batch_ms;
  std::printf("\ncompiled+SIMD batch vs per-machine reference: %.2fx "
              "(gate: >= 3x)%s\n",
              speedup, speedup >= 3.0 ? "" : "  *** BELOW GATE ***");
  return true;
}

void bm_reference_single(benchmark::State& state) {
  const auto model = build_model(602, scaled(20), 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_reference(model.svm, model.probes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(model.probes.rows()));
}
BENCHMARK(bm_reference_single)->Unit(benchmark::kMillisecond);

void bm_compiled_batch(benchmark::State& state) {
  const auto model = build_model(602, scaled(20), 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_batch(model.svm, model.probes));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(model.probes.rows()));
}
BENCHMARK(bm_compiled_batch)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  xdmodml::bench::BenchJsonRecorder::instance().parse_args(argc, argv);
  if (!run_experiment()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
