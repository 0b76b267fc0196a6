// Seeded mutation smoke over the two text input boundaries: one job CSV
// export, one saved JobClassifier and one SVM stream in the old
// svm-ovo-v1 layout, each cut short, bit-flipped and token-swapped at
// seeded positions.  Every mutant must either parse or
// throw an xdmodml::Error; any other exception fails the test and a
// crash kills it.  A model that loads is also asked for predictions,
// which may refuse with an Error but must not crash either.
#include <gtest/gtest.h>

#include <algorithm>
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
// flip and the swap of two tokens.
std::string mutate(const std::string& text, std::string_view delimiters,
                   Rng& rng, int i) {
  std::string out = text;
  switch (i % 3) {
    case 0:
      out.resize(rng.uniform_index(text.size()));
      break;
    case 1:
      out[rng.uniform_index(text.size())] ^=
          static_cast<char>(1u << rng.uniform_index(8));
      break;
    default: {
      const auto spans = tokens(text, delimiters);
      auto a = spans[rng.uniform_index(spans.size())];
      auto b = spans[rng.uniform_index(spans.size())];
      if (a.first > b.first) std::swap(a, b);
      if (a == b) break;
      out = text.substr(0, a.first) +
            text.substr(b.first, b.second - b.first) +
            text.substr(a.second, b.first - a.second) +
            text.substr(a.first, a.second - a.first) + text.substr(b.second);
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

TEST(InputMutation, JobClassifierMutantsLoadOrRaiseStructuredErrors) {
  auto gen = workload::WorkloadGenerator::standard({}, 58);
  std::vector<workload::GeneratedJob> generated;
  for (const auto& app : {"VASP", "NAMD", "GROMACS"}) {
    auto batch = gen.generate_for(app, 12);
    generated.insert(generated.end(), std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
  }
  core::JobClassifierConfig cfg;
  cfg.algorithm = core::Algorithm::kSvm;
  core::JobClassifier clf(cfg);
  clf.train(workload::build_summary_dataset(
      generated, supremm::AttributeSchema::full(),
      supremm::label_by_application()));
  std::ostringstream out;
  clf.save(out);
  const std::string bytes = out.str();
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
