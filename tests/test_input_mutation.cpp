// Seeded mutation smoke over the two text input boundaries: one job CSV
// export, two saved JobClassifiers (SVM and random forest) and one SVM
// stream in the old svm-ovo-v1 layout, each cut short, bit-flipped and
// token-swapped at seeded positions; the forest's numbers are also
// edited to extreme values.  Every mutant must either parse or
// throw an xdmodml::Error; any other exception fails the test and a
// crash kills it.  A model that loads is also asked for predictions,
// which may refuse with an Error but must not crash either.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/job_classifier.hpp"
#include "ml/svm.hpp"
#include "supremm/summary_io.hpp"
#include "svm_v1_stream.hpp"
#include "util/error.hpp"
#include "util/number_scan.hpp"
#include "util/rng.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

namespace xdmodml {
namespace {

constexpr int kCasesPerInput = 300;

// [begin, end) spans of maximal runs of non-delimiter bytes.
std::vector<std::pair<std::size_t, std::size_t>> tokens(
    const std::string& text, std::string_view delimiters) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t begin = 0;
  while ((begin = text.find_first_not_of(delimiters, begin)) !=
         std::string::npos) {
    const auto end = std::min(text.find_first_of(delimiters, begin),
                              text.size());
    spans.emplace_back(begin, end);
    begin = end;
  }
  return spans;
}

// Mutant `i` of `text`: cases cycle through truncation, a single bit
// flip, the swap of two tokens and, with `kinds` = 4, the edit of one
// numeric token to a value at or past a field's range.
std::string mutate(const std::string& text, std::string_view delimiters,
                   Rng& rng, int i, int kinds = 3) {
  std::string out = text;
  switch (i % kinds) {
    case 0:
      out.resize(rng.uniform_index(text.size()));
      break;
    case 1:
      out[rng.uniform_index(text.size())] ^=
          static_cast<char>(1u << rng.uniform_index(8));
      break;
    case 2: {
      const auto spans = tokens(text, delimiters);
      auto a = spans[rng.uniform_index(spans.size())];
      auto b = spans[rng.uniform_index(spans.size())];
      if (a.first > b.first) std::swap(a, b);
      if (a == b) break;
      out = text.substr(0, a.first) +
            text.substr(b.first, b.second - b.first) +
            text.substr(a.second, b.first - a.second) +
            text.substr(a.first, a.second - a.first) + text.substr(b.second);
      break;
    }
    case 3: {
      std::vector<std::pair<std::size_t, std::size_t>> numbers;
      for (const auto& span : tokens(text, delimiters)) {
        const std::string_view token(text.data() + span.first,
                                     span.second - span.first);
        if (scan_double(token)) numbers.push_back(span);
      }
      constexpr std::array<std::string_view, 4> kValues = {
          "-1", "0", "2147483648", "1e308"};
      const auto [begin, end] = numbers[rng.uniform_index(numbers.size())];
      out.replace(begin, end - begin,
                  kValues[rng.uniform_index(kValues.size())]);
    }
  }
  return out;
}

std::vector<supremm::JobSummary> sample_jobs() {
  auto gen = workload::WorkloadGenerator::standard({}, 57);
  auto jobs = workload::summaries_of(gen.generate_native(12));
  for (auto pool : {workload::summaries_of(gen.generate_uncategorized(4)),
                    workload::summaries_of(gen.generate_na(4))}) {
    jobs.insert(jobs.end(), pool.begin(), pool.end());
  }
  jobs[1].executable_path = "/work/a,b/\"q\"\nnext";
  return jobs;
}

// Runs `body` on one mutant; an Error is a structured refusal, anything
// else thrown is a finding.
template <class Body>
bool structured(const Body& body, int i) {
  try {
    body();
    return true;
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutant " << i << " threw a non-library exception: "
                  << e.what();
    return false;
  }
}

TEST(InputMutation, JobCsvMutantsParseOrRaiseStructuredErrors) {
  const auto jobs = sample_jobs();
  std::ostringstream out;
  supremm::write_jobs_csv(out, jobs);
  const std::string text = out.str();
  Rng rng(2014);
  int parsed = 0;
  for (int i = 0; i < kCasesPerInput; ++i) {
    const auto mutant = mutate(text, ",\n", rng, i);
    parsed += structured(
        [&] {
          std::istringstream in(mutant);
          const auto read = supremm::read_jobs_csv(in);
          EXPECT_LE(read.size(), jobs.size());
        },
        i);
  }
  // Both outcomes occur: the smoke exercises accepting and refusing.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kCasesPerInput);
}

std::vector<workload::GeneratedJob> three_app_jobs() {
  auto gen = workload::WorkloadGenerator::standard({}, 58);
  std::vector<workload::GeneratedJob> generated;
  for (const auto& app : {"VASP", "NAMD", "GROMACS"}) {
    auto batch = gen.generate_for(app, 12);
    generated.insert(generated.end(), std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
  }
  return generated;
}

// The stream of a JobClassifier trained on `generated` with `algorithm`.
std::string saved_classifier(
    core::Algorithm algorithm,
    const std::vector<workload::GeneratedJob>& generated) {
  core::JobClassifierConfig cfg;
  cfg.algorithm = algorithm;
  core::JobClassifier clf(cfg);
  clf.train(workload::build_summary_dataset(
      generated, supremm::AttributeSchema::full(),
      supremm::label_by_application()));
  std::ostringstream out;
  clf.save(out);
  return out.str();
}

TEST(InputMutation, JobClassifierMutantsLoadOrRaiseStructuredErrors) {
  const std::string bytes =
      saved_classifier(core::Algorithm::kSvm, three_app_jobs());
  const auto queries = sample_jobs();

  Rng rng(2015);
  int loaded = 0;
  for (int i = 0; i < kCasesPerInput; ++i) {
    const auto mutant = mutate(bytes, " \n", rng, i);
    loaded += structured(
        [&] {
          std::istringstream in(mutant);
          const auto model = core::JobClassifier::load(in);
          for (const auto& job : queries) {
            structured([&] { (void)model.predict(job); }, i);
          }
        },
        i);
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kCasesPerInput);
}

// A forest serves the mean of its leaf distributions as the prediction's
// probability, so a mutant that loads must answer with one that is
// finite and in [0, 1].  The training jobs are among the queries, so
// the leaves they fell into, edited or not, are reached.
TEST(InputMutation, ForestJobClassifierMutantsLoadOrRaiseStructuredErrors) {
  const auto generated = three_app_jobs();
  const std::string bytes =
      saved_classifier(core::Algorithm::kRandomForest, generated);
  auto queries = sample_jobs();
  const auto trained_on = workload::summaries_of(generated);
  queries.insert(queries.end(), trained_on.begin(), trained_on.end());

  Rng rng(2017);
  int loaded = 0;
  for (int i = 0; i < kCasesPerInput; ++i) {
    const auto mutant = mutate(bytes, " \n", rng, i, 4);
    loaded += structured(
        [&] {
          std::istringstream in(mutant);
          const auto model = core::JobClassifier::load(in);
          for (const auto& job : queries) {
            structured(
                [&] {
                  const double p = model.predict(job).probability;
                  EXPECT_TRUE(std::isfinite(p) && p >= 0.0 && p <= 1.0)
                      << "mutant " << i << " served probability " << p;
                },
                i);
          }
        },
        i);
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kCasesPerInput);
}

// The old layout loads through its own path: every machine's rows are
// read, then gathered into one pool by content.
TEST(InputMutation, OldSvmStreamMutantsLoadOrRaiseStructuredErrors) {
  const std::string bytes = kSvmV1Stream;
  const std::vector<std::vector<double>> queries = {
      {0.0, 0.0}, {1.5, -0.5}, {-2.0, 3.0}};
  Rng rng(2016);
  int loaded = 0;
  for (int i = 0; i < kCasesPerInput; ++i) {
    const auto mutant = mutate(bytes, " \n", rng, i);
    loaded += structured(
        [&] {
          std::istringstream in(mutant);
          const auto model = ml::SvmClassifier::load(in);
          for (const auto& x : queries) {
            structured([&] { (void)model.predict_with_probability(x); }, i);
          }
        },
        i);
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kCasesPerInput);
}

}  // namespace
}  // namespace xdmodml
