#include "layers.hpp"

#include <algorithm>
#include <stdexcept>

#include "ml/svm_plan.hpp"
#include "stats.hpp"
#include "xdmod/warehouse.hpp"

namespace pipebench {

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// The order here is the print order; README.md explains each entry.
constexpr LayerSpec kLayers[] = {
    {"summary_io.read_us_per_job", "us"},
    {"csv.parse_us_per_job", "us"},
    {"lariat.identify_us_per_job", "us"},
    {"job_summary.extract_us", "us"},
    {"standardizer.transform_us", "us"},
    {"job_classifier.predict_us", "us"},
    {"svm_plan.kernel_row_us", "us"},
    {"svm_plan.reduce_us", "us"},
    {"svm_plan.unique_svs", "count"},
    {"svm_plan.total_svs", "count"},
    {"svm_plan.build_ms", "ms"},
    {"svm.couple_us", "us"},
    {"classification_service.classify_us_p50", "us"},
    {"classification_service.commit_us_p50", "us"},
    {"classification_service.ingest_batch_ms", "ms"},
    {"thread_pool.tasks", "count"},
    {"thread_pool.task_us_p50", "us"},
    {"thread_pool.queue_hwm", "count"},
    {"warehouse.ingest_us", "us"},
    {"warehouse.aggregate_ms", "ms"},
    {"warehouse.rows", "count"},
    {"model_io.load_s", "s"},
    {"model_io.bytes", "bytes"},
    {"svm.fit_s", "s"},
    {"smo.solves", "count"},
    {"smo.iterations", "count"},
    {"smo.kernel_rows_computed", "count"},
    {"kernel.gram_cache_hit_rate", "fraction"},
    {"kernel.gram_cache_evictions", "count"},
    {"kernel.gram_rows_elements", "count"},
    {"binned_dataset.build_ms", "ms"},
    {"random_forest.fit_s", "s"},
    {"decision_tree.nodes", "count"},
    {"decision_tree.hist_built", "count"},
    {"decision_tree.hist_subtracted", "count"},
    {"job_classifier.evaluate_ms", "ms"},
    {"trace.coverage", "fraction"},
    {"trace.overhead", "ratio"},
};

constexpr std::size_t kPlanBuilds = 3;

}  // namespace

LayerMetrics::LayerMetrics() {
  for (const auto& spec : kLayers) {
    metrics_.push_back({spec.name, spec.unit, 0.0, 0, "calls"});
  }
}

Metric& LayerMetrics::find(const std::string& name) {
  for (auto& m : metrics_) {
    if (m.name == name) return m;
  }
  throw std::logic_error("unlisted per-layer metric: " + name);
}

void LayerMetrics::set(const std::string& name, double value,
                       std::size_t samples, const std::string& kind) {
  auto& m = find(name);
  m.value = value;
  m.samples = samples;
  m.sample_kind = kind;
}

void LayerMetrics::set_absent(const std::string& name) {
  find(name).sample_kind = "calls; not registered in this process";
  absent_.push_back(name);
}

RegistryReading::RegistryReading()
    : snap_(xdmodml::obs::MetricsRegistry::instance().snapshot()) {}

std::optional<std::uint64_t> RegistryReading::counter(
    const std::string& name) const {
  for (const auto& [n, v] : snap_.counters) {
    if (n == name) return v;
  }
  return std::nullopt;
}

std::optional<std::int64_t> RegistryReading::gauge(
    const std::string& name) const {
  for (const auto& [n, v] : snap_.gauges) {
    if (n == name) return v;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> RegistryReading::histogram_count(
    const std::string& name) const {
  const auto* h = snap_.histogram(name);
  if (h == nullptr) return std::nullopt;
  return h->count;
}

std::optional<double> RegistryReading::histogram_median(
    const std::string& name, std::uint64_t skip, double scale) const {
  const auto* h = snap_.histogram(name);
  if (h == nullptr) return std::nullopt;
  if (h->count <= skip) return 0.0;
  const double target = static_cast<double>(skip) +
                        0.5 * static_cast<double>(h->count - skip);
  double cum = 0.0;
  for (const auto& [floor, count] : h->buckets) {
    const double c = static_cast<double>(count);
    if (cum + c >= target) {
      if (floor == 0) return 0.0;
      // Bucket [floor, 2 * floor): interpolate the rank inside it.
      const double lo = static_cast<double>(floor);
      return (lo + (target - cum) / c * lo) / scale;
    }
    cum += c;
  }
  return static_cast<double>(h->buckets.back().first) / scale;
}

void set_registry_layers(LayerMetrics& out, const RegistryReading& reading,
                         std::size_t all_ops, std::uint64_t identified) {
  const double per_op =
      1.0 / static_cast<double>(std::max<std::size_t>(all_ops, 1));
  const auto count = [&](const char* metric, const char* name) {
    if (const auto v = reading.counter(name)) {
      out.set(metric, static_cast<double>(*v) * per_op, all_ops, "ops");
    } else {
      out.set_absent(metric);
    }
  };
  const auto p50 = [&](const char* metric, const char* name,
                       std::uint64_t skip) {
    const auto v = reading.histogram_median(name, skip, 1e3);
    if (!v) return out.set_absent(metric);
    const auto n = *reading.histogram_count(name);
    out.set(metric, *v, n > skip ? n - skip : 0, "records");
  };
  p50("classification_service.classify_us_p50", "service.classify_ns",
      identified);
  p50("classification_service.commit_us_p50", "service.commit_ns", 0);
  count("thread_pool.tasks", "thread_pool.tasks");
  p50("thread_pool.task_us_p50", "thread_pool.task_ns", 0);
  if (const auto hwm = reading.gauge("thread_pool.queue_hwm")) {
    out.set("thread_pool.queue_hwm", static_cast<double>(*hwm), 1, "phases");
  } else {
    out.set_absent("thread_pool.queue_hwm");
  }
  count("smo.solves", "smo.solves");
  count("smo.iterations", "smo.iterations");
  count("smo.kernel_rows_computed", "smo.kernel_rows_computed");
  count("kernel.gram_cache_evictions", "gram_cache.evictions");
  count("kernel.gram_rows_elements", "gram_rows.elements");
  count("decision_tree.nodes", "tree.nodes");
  count("decision_tree.hist_built", "tree.hist_built");
  count("decision_tree.hist_subtracted", "tree.hist_subtracted");
  const auto hits = reading.counter("gram_cache.hits");
  const auto misses = reading.counter("gram_cache.misses");
  if (hits && misses) {
    const auto lookups = *hits + *misses;
    out.set("kernel.gram_cache_hit_rate",
            lookups == 0 ? 0.0
                         : static_cast<double>(*hits) /
                               static_cast<double>(lookups),
            lookups, "lookups");
  } else {
    out.set_absent("kernel.gram_cache_hit_rate");
  }
}

std::optional<double> median_self(const SpanRecorder& rec, const char* name,
                                  double unit_ns) {
  const auto all = rec.self_times();
  const auto it = all.find(name);
  if (it == all.end() || it->second.empty()) return std::nullopt;
  std::vector<double> v;
  v.reserve(it->second.size());
  for (const auto ns : it->second) v.push_back(static_cast<double>(ns) / unit_ns);
  return median(v);
}

Coverage op_coverage(const SpanRecorder& rec, const char* root) {
  const auto ops = rec.op_coverage(root);
  check(!ops.empty(), std::string("no traced ops named ") + root);
  std::vector<double> shares;
  std::uint64_t covered = 0;
  std::uint64_t wall = 0;
  for (const auto& op : ops) {
    shares.push_back(op.wall_ns == 0 ? 1.0
                                     : static_cast<double>(op.covered_ns) /
                                           static_cast<double>(op.wall_ns));
    covered += op.covered_ns;
    wall += op.wall_ns;
  }
  Coverage out;
  out.ops = ops.size();
  out.median = median(shares);
  out.min = *std::min_element(shares.begin(), shares.end());
  out.total = wall == 0 ? 1.0
                        : static_cast<double>(covered) /
                              static_cast<double>(wall);
  return out;
}

std::vector<QueryResult> probe_queries(
    SpanRecorder& rec, const BareSvmModel& bare,
    const xdmodml::core::JobClassifier& served,
    std::span<const xdmodml::supremm::JobSummary> jobs) {
  const auto& schema = xdmodml::supremm::AttributeSchema::full();
  const auto& plan = bare.svm.inference_plan();
  const auto k = static_cast<std::size_t>(bare.svm.num_classes());
  std::vector<double> krow(plan.unique_support_vectors());
  xdmodml::Matrix pairwise(k, k, 0.0);
  // All rebuilds first, then all served predictions: interleaving them
  // would have the two models' support-vector pools evict each other
  // from cache and slow both.
  std::vector<QueryResult> out;
  for (const auto& job : jobs) {
    std::vector<double> proba;
    rec.next_op();
    {
      Span root(&rec, "probe.query");
      std::vector<double> x;
      {
        Span s(&rec, "job_summary.extract");
        x = job.extract(schema);
      }
      {
        Span s(&rec, "standardizer.transform_row");
        bare.standardizer.transform_row(x);
      }
      {
        Span s(&rec, "svm_plan.kernel_row");
        plan.kernel_row(x, krow);
      }
      {
        Span s(&rec, "svm_plan.reduce");
        std::size_t idx = 0;  // lexicographic (a, b) machine order
        for (std::size_t a = 0; a < k; ++a) {
          for (std::size_t b = a + 1; b < k; ++b, ++idx) {
            const auto& machine = plan.machine(idx);
            const double r = std::clamp(
                machine.sigmoid.probability(plan.decision_value(idx, krow)),
                1e-7, 1.0 - 1e-7);
            pairwise(a, b) = r;
            pairwise(b, a) = 1.0 - r;
          }
        }
      }
      {
        Span s(&rec, "svm.couple");
        proba = xdmodml::ml::couple_pairwise_probabilities(pairwise);
      }
    }
    const auto it = std::max_element(proba.begin(), proba.end());
    out.push_back({static_cast<int>(it - proba.begin()), *it});
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    xdmodml::core::LabeledPrediction pred;
    rec.next_op();
    {
      Span root(&rec, "probe.predict");
      Span s(&rec, "job_classifier.predict");
      pred = served.predict(jobs[i]);
    }
    check(pred.label == out[i].label && pred.probability == out[i].probability,
          "stage rebuild of job " + std::to_string(jobs[i].job_id) +
              " differs from JobClassifier::predict");
  }
  return out;
}

void set_query_layers(LayerMetrics& out, const SpanRecorder& rec,
                      const BareSvmModel& bare) {
  const std::size_t n = rec.op_coverage("probe.query").size();
  const auto put = [&](const char* metric, const char* span) {
    if (const auto v = median_self(rec, span, 1e3)) {
      out.set(metric, *v, n, "queries");
    }
  };
  put("job_summary.extract_us", "job_summary.extract");
  put("standardizer.transform_us", "standardizer.transform_row");
  put("job_classifier.predict_us", "job_classifier.predict");
  put("svm_plan.kernel_row_us", "svm_plan.kernel_row");
  put("svm_plan.reduce_us", "svm_plan.reduce");
  put("svm.couple_us", "svm.couple");

  const auto& plan = bare.svm.inference_plan();
  out.set("svm_plan.unique_svs",
          static_cast<double>(plan.unique_support_vectors()), 1, "plans");
  out.set("svm_plan.total_svs",
          static_cast<double>(plan.total_support_vectors()), 1, "plans");
  // A copy shares no plan, so its first inference_plan() call builds one.
  std::vector<double> build_ms;
  for (std::size_t i = 0; i < kPlanBuilds; ++i) {
    const xdmodml::ml::SvmClassifier copy(bare.svm);
    const auto t0 = now_ns();
    copy.inference_plan();
    build_ms.push_back(seconds_between(t0, now_ns()) * 1e3);
  }
  out.set("svm_plan.build_ms", median(build_ms), build_ms.size(), "builds");
}

double probe_warehouse_ingest_us(
    std::span<const xdmodml::supremm::JobSummary> jobs) {
  xdmodml::xdmod::Warehouse warehouse;
  std::vector<double> us;
  us.reserve(jobs.size());
  for (const auto& job : jobs) {
    auto row = job;
    const auto t0 = now_ns();
    warehouse.ingest(std::move(row));
    us.push_back(seconds_between(t0, now_ns()) * 1e6);
  }
  check(warehouse.size() == jobs.size(), "warehouse probe lost rows");
  return median(us);
}

void set_trace_layers(LayerMetrics& out, RunResult& result,
                      const SpanRecorder& rec,
                      std::span<const double> untraced_op_s,
                      std::span<const double> traced_op_s) {
  const auto cov = op_coverage(rec, "op");
  check(cov.median >= kCoverageFloor && cov.total >= kCoverageFloor,
        "stage spans cover too little of the op wall time: median " +
            format_number(cov.median) + ", total " + format_number(cov.total));
  out.set("trace.coverage", cov.median, cov.ops, "ops");
  const double overhead = median(traced_op_s) / median(untraced_op_s);
  out.set("trace.overhead", overhead, traced_op_s.size(), "traced ops");
  result.notes.push_back(
      "trace: coverage median " + format_number(cov.median) + " total " +
      format_number(cov.total) + " min " + format_number(cov.min) + " over " +
      std::to_string(cov.ops) + " ops; overhead " + format_number(overhead) +
      " = median traced op " + format_number(median(traced_op_s) * 1e3) +
      " ms (n=" + std::to_string(traced_op_s.size()) +
      ") / median untraced op " + format_number(median(untraced_op_s) * 1e3) +
      " ms (n=" + std::to_string(untraced_op_s.size()) + ")");
}

void write_spans(const SpanRecorder& rec, const RunConfig& config) {
  check(!config.spans_path.empty(), "traced run needs --spans <path>");
  check(rec.write(config.spans_path),
        "could not write the span file " + config.spans_path);
}

}  // namespace pipebench
