// Round-trip tests for model serialization: standardizer, trees, forest,
// SVM, naive Bayes, and the full JobClassifier pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/job_classifier.hpp"
#include "ml/model_io.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/random_forest.hpp"
#include "ml/svm.hpp"
#include "ml/svm_plan.hpp"
#include "util/error.hpp"
#include "workload/dataset_helpers.hpp"
#include "workload/generator.hpp"

namespace xdmodml {
namespace {

using ml::Dataset;

Dataset blob_dataset(std::size_t per_class, std::uint64_t seed = 1) {
  Dataset ds;
  Rng rng(seed);
  ds.class_names = {"a", "b", "c"};
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      ds.X.append_row(std::vector<double>{rng.normal(4.0 * c, 1.0),
                                          rng.normal(-2.0 * c, 1.0)});
      ds.labels.push_back(c);
    }
  }
  return ds;
}

TEST(ModelIo, TokenReaderValidates) {
  std::istringstream in("foo 1.5");
  ml::io::TokenReader reader(in);
  EXPECT_THROW(reader.expect("bar"), InvalidArgument);
  std::istringstream in2("x");
  ml::io::TokenReader reader2(in2);
  EXPECT_THROW(reader2.read_double("x"), InvalidArgument);  // truncated
}

TEST(ModelIo, VectorRoundTrip) {
  std::ostringstream out;
  const std::vector<double> values{1.5, -2.25, 1e-17, 3.0};
  ml::io::write_vector(out, "v", values);
  std::istringstream in(out.str());
  ml::io::TokenReader reader(in);
  EXPECT_EQ(reader.read_vector("v"), values);
}

TEST(ModelIo, StandardizerRoundTrip) {
  const auto ds = blob_dataset(20);
  ml::Standardizer s;
  s.fit(ds.X);
  std::ostringstream out;
  s.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::Standardizer::load(in);
  const auto a = s.transform(ds.X);
  const auto b = loaded.transform(ds.X);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_DOUBLE_EQ(a(r, c), b(r, c));
    }
  }
  ml::Standardizer unfitted;
  std::ostringstream dummy;
  EXPECT_THROW(unfitted.save(dummy), InvalidArgument);
}

TEST(ModelIo, ForestRoundTripPredictionsIdentical) {
  const auto ds = blob_dataset(50);
  ml::ForestConfig cfg;
  cfg.num_trees = 30;
  ml::RandomForestClassifier rf(cfg, 3);
  rf.fit(ds.X, ds.labels, 3);
  std::ostringstream out;
  rf.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::RandomForestClassifier::load(in);
  EXPECT_EQ(loaded.num_trees(), rf.num_trees());
  for (std::size_t r = 0; r < ds.X.rows(); ++r) {
    const auto pa = rf.predict_proba(ds.X.row(r));
    const auto pb = loaded.predict_proba(ds.X.row(r));
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_DOUBLE_EQ(pa[c], pb[c]);
    }
  }
  // OOB is a training-time artifact, not serialized.
  EXPECT_THROW(loaded.oob_error(), InvalidArgument);
}

TEST(ModelIo, SvmRoundTripPredictionsIdentical) {
  const auto ds = blob_dataset(30);
  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(0.5);
  cfg.c = 10.0;
  cfg.probability = true;
  ml::SvmClassifier svm(cfg, 7);
  svm.fit(ds.X, ds.labels, 3);
  std::ostringstream out;
  svm.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::SvmClassifier::load(in);
  EXPECT_EQ(loaded.num_machines(), svm.num_machines());
  EXPECT_EQ(loaded.total_support_vectors(), svm.total_support_vectors());
  // The stream stores the deduplicated pool, so the reloaded plan has
  // the pool the pre-save model had.
  const auto& plan = svm.inference_plan();
  const auto& reloaded_plan = loaded.inference_plan();
  EXPECT_EQ(reloaded_plan.unique_support_vectors(),
            plan.unique_support_vectors());
  for (std::size_t r = 0; r < ds.X.rows(); ++r) {
    const auto pa = svm.predict_proba(ds.X.row(r));
    const auto pb = loaded.predict_proba(ds.X.row(r));
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_NEAR(pa[c], pb[c], 1e-12);
    }
  }
}

TEST(ModelIo, NaiveBayesRoundTrip) {
  const auto ds = blob_dataset(30);
  ml::NaiveBayesClassifier nb;
  nb.fit(ds.X, ds.labels, 4);  // one class unseen -> -inf prior path
  std::ostringstream out;
  nb.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::NaiveBayesClassifier::load(in);
  for (std::size_t r = 0; r < ds.X.rows(); ++r) {
    const auto pa = nb.predict_proba(ds.X.row(r));
    const auto pb = loaded.predict_proba(ds.X.row(r));
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_DOUBLE_EQ(pa[c], pb[c]);
    }
  }
}

TEST(ModelIo, JobClassifierFullPipelineRoundTrip) {
  auto gen = workload::WorkloadGenerator::standard({}, 21);
  std::vector<workload::GeneratedJob> jobs;
  for (const auto& app : {"VASP", "NAMD", "PYTHON"}) {
    auto batch = gen.generate_for(app, 40);
    jobs.insert(jobs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  const auto schema = supremm::AttributeSchema::full();
  const auto train = workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application());

  core::JobClassifierConfig cfg;
  cfg.algorithm = core::Algorithm::kRandomForest;
  cfg.forest.num_trees = 40;
  core::JobClassifier clf(cfg);
  clf.train(train);

  std::ostringstream out;
  clf.save(out);
  std::istringstream in(out.str());
  const auto loaded = core::JobClassifier::load(in);

  EXPECT_EQ(loaded.class_names(), clf.class_names());
  EXPECT_EQ(loaded.schema().names(), clf.schema().names());
  for (const auto& job : jobs) {
    const auto a = clf.predict(job.summary);
    const auto b = loaded.predict(job.summary);
    EXPECT_EQ(a.class_name, b.class_name);
    EXPECT_DOUBLE_EQ(a.probability, b.probability);
  }
}

TEST(ModelIo, JobClassifierSvmRoundTrip) {
  auto gen = workload::WorkloadGenerator::standard({}, 22);
  std::vector<workload::GeneratedJob> jobs;
  for (const auto& app : {"VASP", "GROMACS"}) {
    auto batch = gen.generate_for(app, 30);
    jobs.insert(jobs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  const auto schema = supremm::AttributeSchema::full();
  const auto train = workload::build_summary_dataset(
      jobs, schema, supremm::label_by_application());
  core::JobClassifierConfig cfg;
  cfg.algorithm = core::Algorithm::kSvm;
  core::JobClassifier clf(cfg);
  clf.train(train);
  std::ostringstream out;
  clf.save(out);
  std::istringstream in(out.str());
  const auto loaded = core::JobClassifier::load(in);
  for (const auto& job : jobs) {
    EXPECT_EQ(clf.predict(job.summary).class_name,
              loaded.predict(job.summary).class_name);
  }
}

TEST(ModelIo, ForestRegressorRoundTrip) {
  Rng rng(41);
  Matrix X;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    const double a = rng.uniform(0.0, 5.0);
    X.append_row(std::vector<double>{a, rng.normal()});
    y.push_back(3.0 * a + rng.normal(0.0, 0.1));
  }
  ml::ForestConfig cfg;
  cfg.num_trees = 25;
  ml::RandomForestRegressor rf(cfg, 5);
  rf.fit(X, y);
  std::ostringstream out;
  rf.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::RandomForestRegressor::load(in);
  for (std::size_t r = 0; r < 50; ++r) {
    EXPECT_DOUBLE_EQ(loaded.predict(X.row(r)), rf.predict(X.row(r)));
  }
  EXPECT_THROW(loaded.oob_mse(), InvalidArgument);
}

TEST(ModelIo, SvrRoundTrip) {
  Rng rng(43);
  Matrix X;
  std::vector<double> y;
  for (int i = 0; i < 120; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    X.append_row(std::vector<double>{a});
    y.push_back(std::sin(a));
  }
  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(1.0);
  cfg.c = 50.0;
  cfg.epsilon = 0.05;
  ml::SvmRegressor svr(cfg);
  svr.fit(X, y);
  std::ostringstream out;
  svr.save(out);
  std::istringstream in(out.str());
  const auto loaded = ml::SvmRegressor::load(in);
  EXPECT_EQ(loaded.num_support_vectors(), svr.num_support_vectors());
  for (double a = -1.5; a <= 1.5; a += 0.25) {
    EXPECT_DOUBLE_EQ(loaded.predict(std::vector<double>{a}),
                     svr.predict(std::vector<double>{a}));
  }
}

template <class Model>
std::string saved(const Model& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

// save(load(bytes)) == bytes: the loader reads back every serialized
// value exactly, so a second save reproduces the stream byte for byte.
template <class Model>
void expect_byte_identity(const Model& model) {
  const auto bytes = saved(model);
  std::istringstream in(bytes);
  EXPECT_EQ(saved(Model::load(in)), bytes);
}

TEST(ModelIo, EveryModelReSavesByteIdentical) {
  const auto ds = blob_dataset(30);
  {
    SCOPED_TRACE("svm");
    ml::SvmConfig cfg;
    cfg.kernel = ml::Kernel::rbf(0.5);
    cfg.c = 10.0;
    cfg.probability = true;
    ml::SvmClassifier svm(cfg, 7);
    svm.fit(ds.X, ds.labels, 3);
    expect_byte_identity(svm);
  }
  {
    SCOPED_TRACE("svr");
    ml::SvmConfig cfg;
    cfg.kernel = ml::Kernel::rbf(1.0);
    cfg.epsilon = 0.05;
    ml::SvmRegressor svr(cfg);
    std::vector<double> y;
    for (std::size_t r = 0; r < ds.X.rows(); ++r) {
      y.push_back(std::sin(ds.X(r, 0)));
    }
    svr.fit(ds.X, y);
    expect_byte_identity(svr);
    SCOPED_TRACE("forest regressor");
    ml::ForestConfig forest_cfg;
    forest_cfg.num_trees = 8;
    ml::RandomForestRegressor rfr(forest_cfg, 5);
    rfr.fit(ds.X, y);
    expect_byte_identity(rfr);
  }
  {
    SCOPED_TRACE("forest classifier");
    ml::ForestConfig cfg;
    cfg.num_trees = 8;
    ml::RandomForestClassifier rf(cfg, 3);
    rf.fit(ds.X, ds.labels, 3);
    expect_byte_identity(rf);
  }
  {
    SCOPED_TRACE("naive bayes");
    ml::NaiveBayesClassifier nb;
    nb.fit(ds.X, ds.labels, 4);  // the unseen class saves its sentinel
    expect_byte_identity(nb);
  }
  {
    SCOPED_TRACE("standardizer");
    ml::Standardizer st;
    st.fit(ds.X);
    expect_byte_identity(st);
  }
}

TEST(ModelIo, JobClassifierReSavesByteIdentical) {
  auto gen = workload::WorkloadGenerator::standard({}, 23);
  std::vector<workload::GeneratedJob> jobs;
  for (const auto& app : {"VASP", "NAMD", "GROMACS"}) {
    auto batch = gen.generate_for(app, 20);
    jobs.insert(jobs.end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
  const auto train = workload::build_summary_dataset(
      jobs, supremm::AttributeSchema::full(),
      supremm::label_by_application());
  for (const auto algorithm :
       {core::Algorithm::kSvm, core::Algorithm::kRandomForest,
        core::Algorithm::kNaiveBayes}) {
    SCOPED_TRACE(core::algorithm_name(algorithm));
    core::JobClassifierConfig cfg;
    cfg.algorithm = algorithm;
    cfg.forest.num_trees = 8;
    core::JobClassifier clf(cfg);
    clf.train(train);
    expect_byte_identity(clf);
  }
}

// `text` with the value on the first `tag` line replaced.
std::string with_value(std::string text, const std::string& tag,
                       const std::string& value) {
  const auto at = text.find("\n" + tag + " ");
  EXPECT_NE(at, std::string::npos) << tag;
  const auto begin = at + tag.size() + 2;
  text.replace(begin, text.find('\n', begin) - begin, value);
  return text;
}

std::string two_class_svm() {
  auto ds = blob_dataset(20);
  for (auto& label : ds.labels) label = label == 0 ? 0 : 1;
  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(0.5);
  cfg.probability = true;
  ml::SvmClassifier svm(cfg, 3);
  svm.fit(ds.X, ds.labels, 2);
  return saved(svm);
}

TEST(ModelIo, SvmClassCountIsRangeChecked) {
  // classes -1 gives k(k-1)/2 = 1, so the one-machine stream passed the
  // machine-count check, loaded, and segfaulted on first use.
  const auto svm = two_class_svm();
  for (const char* classes : {"-1", "0", "1", "2147483648"}) {
    SCOPED_TRACE(classes);
    std::istringstream in(with_value(svm, "classes", classes));
    EXPECT_THROW(ml::SvmClassifier::load(in), InvalidArgument);
  }
  std::istringstream in(with_value(svm, "classes", "2"));
  EXPECT_EQ(ml::SvmClassifier::load(in).num_machines(), 1u);
}

TEST(ModelIo, RbfGammaMustBePositive) {
  // gamma -5 loaded and predicted p = 1 for every query.
  const auto svm = two_class_svm();
  for (const char* gamma : {"-5", "0", "-0"}) {
    SCOPED_TRACE(gamma);
    std::istringstream in(with_value(svm, "gamma", gamma));
    EXPECT_THROW(ml::SvmClassifier::load(in), InvalidArgument);
  }
  Rng rng(44);
  Matrix X;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    X.append_row(std::vector<double>{a});
    y.push_back(a * a);
  }
  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(1.0);
  ml::SvmRegressor svr(cfg);
  svr.fit(X, y);
  std::istringstream in(with_value(saved(svr), "gamma", "-5"));
  EXPECT_THROW(ml::SvmRegressor::load(in), InvalidArgument);
}

TEST(ModelIo, SvmCoefficientOutsideItsBoxIsRejected) {
  // +1e308 and -1e308 over two coefficients of one machine loaded and
  // served finite but changed probabilities for every training row.
  const auto ds = blob_dataset(30);
  ml::SvmConfig cfg;
  cfg.kernel = ml::Kernel::rbf(0.5);
  cfg.c = 10.0;
  ml::SvmClassifier svm(cfg, 7);
  svm.fit(ds.X, ds.labels, 3);
  const auto text = saved(svm);
  // Machine 0's coefficient line: "coef <n> <c_0> <c_1> ...".
  const auto begin = text.find("\ncoef ") + 6;
  std::istringstream fields(text.substr(begin, text.find('\n', begin) - begin));
  std::string n;
  std::string c0;
  std::string c1;
  std::string rest;
  fields >> n >> c0 >> c1;
  std::getline(fields, rest);
  std::istringstream in(with_value(text, "coef", n + " 1e308 -1e308" + rest));
  try {
    (void)ml::SvmClassifier::load(in);
    ADD_FAILURE() << "out-of-box coefficients loaded";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("machine 0"), std::string::npos)
        << e.what();
  }
}

TEST(ModelIo, ForestCountsAreRangeChecked) {
  const auto ds = blob_dataset(20);
  ml::ForestConfig cfg;
  cfg.num_trees = 3;
  ml::RandomForestClassifier rf(cfg, 3);
  rf.fit(ds.X, ds.labels, 3);
  const auto forest = saved(rf);
  // 2^62 trees or nodes threw std::length_error from sizing the vectors
  // up front; classes 2^32 + 3 narrowed to 3 and loaded; features -1
  // loaded and predicted.
  const std::pair<const char*, const char*> edits[] = {
      {"trees", "4611686018427387904"},
      {"nodes", "4611686018427387904"},
      {"classes", "4294967299"},
      {"features", "-1"}};
  for (const auto& [tag, value] : edits) {
    SCOPED_TRACE(tag);
    std::istringstream in(with_value(forest, tag, value));
    EXPECT_THROW(ml::RandomForestClassifier::load(in), InvalidArgument);
  }
}

TEST(ModelIo, CorruptStreamsRejected) {
  std::istringstream garbage("not-a-model 42");
  EXPECT_THROW(ml::RandomForestClassifier::load(garbage), InvalidArgument);
  std::istringstream truncated("forest-v1 classes 3");
  EXPECT_THROW(ml::RandomForestClassifier::load(truncated),
               InvalidArgument);
  std::istringstream wrong_algo(
      "job-classifier-v1 algorithm quantum classes 1 class x");
  EXPECT_THROW(core::JobClassifier::load(wrong_algo), InvalidArgument);
}

}  // namespace
}  // namespace xdmodml
