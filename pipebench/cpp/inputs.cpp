#include "inputs.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "ml/model_io.hpp"
#include "stats.hpp"
#include "supremm/dataset_builder.hpp"
#include "supremm/summary_io.hpp"
#include "workload/dataset_helpers.hpp"

namespace pipebench {

using xm::supremm::JobSummary;

std::vector<JobSummary> generate_training(
    xm::workload::WorkloadGenerator& gen, std::size_t per_class) {
  return xm::workload::summaries_of(
      xm::bench::generate_table2_train(gen, per_class));
}

std::vector<JobSummary> generate_heldout(xm::workload::WorkloadGenerator& gen,
                                         std::size_t count) {
  return xm::workload::summaries_of(xm::bench::generate_table2_test(gen, count));
}

std::string to_csv(std::span<const JobSummary> jobs) {
  std::ostringstream out;
  xm::supremm::write_jobs_csv(out, jobs);
  return std::move(out).str();
}

std::vector<JobSummary> from_csv(const std::string& csv) {
  std::istringstream in(csv);
  return xm::supremm::read_jobs_csv(in);
}

xm::ml::Dataset table2_dataset(std::span<const JobSummary> jobs) {
  return xm::supremm::build_dataset(jobs, xm::supremm::AttributeSchema::full(),
                                    xm::supremm::label_by_application(),
                                    xm::bench::table2_applications());
}

xm::core::JobClassifierConfig svm_config() {
  xm::core::JobClassifierConfig config;
  config.algorithm = xm::core::Algorithm::kSvm;
  config.svm.kernel = xm::ml::Kernel::rbf(0.1);
  config.svm.c = 1000.0;
  return config;
}

xm::core::JobClassifierConfig forest_config() {
  xm::core::JobClassifierConfig config;
  config.algorithm = xm::core::Algorithm::kRandomForest;
  config.forest.num_trees = 200;
  return config;
}

BareSvmModel parse_svm_model(const std::string& bytes) {
  // Mirrors JobClassifier::load's header walk, then loads the
  // standardizer and the SVM as bare objects from the same bytes.
  std::istringstream in(bytes);
  xm::ml::io::TokenReader reader(in);
  reader.expect("job-classifier-v1");
  check(reader.read_string("algorithm") == "svm",
        "served model is not an SVM JobClassifier");
  const auto& apps = xm::bench::table2_applications();
  check(reader.read_int("classes") == static_cast<std::int64_t>(apps.size()),
        "served model classes are not the Table-2 applications");
  for (const auto& app : apps) {
    check(reader.read_string("class") == app,
          "served model classes are not the Table-2 applications");
  }
  const auto schema = xm::supremm::AttributeSchema::full();
  const auto& full = schema.attributes();
  const auto attrs = reader.read_int("attributes");
  check(attrs == static_cast<std::int64_t>(full.size()),
        "served model schema is not the full attribute schema");
  for (const auto& attr : full) {
    const auto metric = reader.read_int("metric");
    const bool is_cov = reader.read_int("cov") != 0;
    check(metric == static_cast<std::int64_t>(attr.metric) &&
              is_cov == attr.is_cov,
          "served model schema is not the full attribute schema");
  }
  BareSvmModel model;
  model.standardizer = xm::ml::Standardizer::load(in);
  model.svm = xm::ml::SvmClassifier::load(in);
  return model;
}

ReferencePrediction reference_predict(const BareSvmModel& model,
                                      const JobSummary& job) {
  auto x = job.extract(xm::supremm::AttributeSchema::full());
  model.standardizer.transform_row(x);
  const auto k = static_cast<std::size_t>(model.svm.num_classes());
  xm::Matrix pairwise(k, k, 0.0);
  std::size_t idx = 0;  // machines are stored in lexicographic (a, b) order
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++idx) {
      const double r = std::clamp(
          model.svm.machine(idx).probability_positive(x), 1e-7, 1.0 - 1e-7);
      pairwise(a, b) = r;
      pairwise(b, a) = 1.0 - r;
    }
  }
  ReferencePrediction out;
  out.proba = xm::ml::couple_pairwise_probabilities(pairwise);
  const auto it = std::max_element(out.proba.begin(), out.proba.end());
  out.label = static_cast<int>(it - out.proba.begin());
  out.probability = *it;
  return out;
}

bool matches_reference(const ReferencePrediction& ref, int label,
                       double probability, double tol) {
  if (label < 0 || static_cast<std::size_t>(label) >= ref.proba.size()) {
    return false;
  }
  if (std::abs(probability - ref.proba[static_cast<std::size_t>(label)]) >
      tol) {
    return false;
  }
  return label == ref.label || std::abs(ref.probability - probability) <= tol;
}

std::string spread_note(const std::string& what, std::span<const double> v) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return what + ": min " + format_number(*lo) + " q1 " +
         format_number(quantile(v, 0.25)) + " median " +
         format_number(median(v)) + " q3 " + format_number(quantile(v, 0.75)) +
         " max " + format_number(*hi) + " (n=" + std::to_string(v.size()) + ")";
}

namespace {

/// Resident set when restart_peak_rss last ran.
double rss_baseline_mib = 0.0;

/// A "<key> <n> kB" line of /proc/self/status, in MiB.
double read_status_mib(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;
    }
  }
  throw CheckFailure("no " + key + " line in /proc/self/status");
}

}  // namespace

void restart_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  check(static_cast<bool>(clear),
        "cannot reset the peak resident set via /proc/self/clear_refs");
  rss_baseline_mib = read_status_mib("VmRSS:");
}

double peak_rss_mib() {
  return read_status_mib("VmHWM:") - rss_baseline_mib;
}

}  // namespace pipebench
