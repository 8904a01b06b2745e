#include "src/models/classifier.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/data/synthetic.h"
#include "src/dataframe/chunked.h"
#include "src/dataframe/spill.h"
#include "src/models/tree_models.h"
#include "src/stats/auc.h"

namespace safe {
namespace models {
namespace {

data::SyntheticSpec EasySpec() {
  data::SyntheticSpec spec;
  spec.num_rows = 1200;
  spec.num_features = 6;
  spec.num_informative = 3;
  spec.num_interactions = 2;
  spec.num_redundant = 0;
  spec.linear_weight = 0.6;  // partly linear so LR/SVM can also learn
  spec.noise = 0.15;
  spec.seed = 321;
  return spec;
}

struct SplitPair {
  Dataset train;
  Dataset test;
};

SplitPair MakeEasyProblem() {
  auto split = data::MakeSyntheticSplit(EasySpec(), 800, 0, 400);
  EXPECT_TRUE(split.ok());
  return SplitPair{split->train, split->test};
}

class AllClassifiersTest : public ::testing::TestWithParam<ClassifierKind> {};

TEST_P(AllClassifiersTest, FactoryConstructs) {
  auto clf = MakeClassifier(GetParam(), 1);
  ASSERT_NE(clf, nullptr);
  EXPECT_FALSE(clf->name().empty());
  EXPECT_STRNE(ClassifierShortName(GetParam()), "?");
}

TEST_P(AllClassifiersTest, BeatsChanceOnLearnableProblem) {
  SplitPair data = MakeEasyProblem();
  auto clf = MakeClassifier(GetParam(), 7);
  ASSERT_TRUE(clf->Fit(data.train).ok());
  auto scores = clf->PredictScores(data.test.x);
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores->size(), data.test.num_rows());
  auto auc = Auc(*scores, data.test.labels());
  ASSERT_TRUE(auc.ok());
  EXPECT_GT(*auc, 0.65) << clf->name();
}

TEST_P(AllClassifiersTest, PredictBeforeFitFails) {
  auto clf = MakeClassifier(GetParam(), 7);
  DataFrame x;
  ASSERT_TRUE(x.AddColumn(Column("f", {1.0, 2.0})).ok());
  EXPECT_FALSE(clf->PredictScores(x).ok());
}

TEST_P(AllClassifiersTest, RejectsEmptyTrainingData) {
  auto clf = MakeClassifier(GetParam(), 7);
  Dataset empty;
  EXPECT_FALSE(clf->Fit(empty).ok());
}

TEST_P(AllClassifiersTest, RejectsWidthMismatchAtPredict) {
  SplitPair data = MakeEasyProblem();
  auto clf = MakeClassifier(GetParam(), 7);
  ASSERT_TRUE(clf->Fit(data.train).ok());
  DataFrame narrow;
  ASSERT_TRUE(narrow.AddColumn(Column("only", {1.0})).ok());
  EXPECT_FALSE(clf->PredictScores(narrow).ok());
}

TEST_P(AllClassifiersTest, DeterministicForSameSeed) {
  SplitPair data = MakeEasyProblem();
  auto a = MakeClassifier(GetParam(), 55);
  auto b = MakeClassifier(GetParam(), 55);
  ASSERT_TRUE(a->Fit(data.train).ok());
  ASSERT_TRUE(b->Fit(data.train).ok());
  auto sa = a->PredictScores(data.test.x);
  auto sb = b->PredictScores(data.test.x);
  ASSERT_TRUE(sa.ok() && sb.ok());
  for (size_t i = 0; i < sa->size(); ++i) {
    ASSERT_DOUBLE_EQ((*sa)[i], (*sb)[i]);
  }
}

TEST_P(AllClassifiersTest, RefitReplacesModel) {
  SplitPair data = MakeEasyProblem();
  auto clf = MakeClassifier(GetParam(), 7);
  ASSERT_TRUE(clf->Fit(data.train).ok());
  // Second fit on a different (inverted-label) problem must change output.
  std::vector<double> inverted;
  for (double y : data.train.labels()) inverted.push_back(1.0 - y);
  auto flipped = MakeDataset(data.train.x, inverted);
  ASSERT_TRUE(flipped.ok());
  ASSERT_TRUE(clf->Fit(*flipped).ok());
  auto scores = clf->PredictScores(data.test.x);
  ASSERT_TRUE(scores.ok());
  auto auc = Auc(*scores, data.test.labels());
  ASSERT_TRUE(auc.ok());
  EXPECT_LT(*auc, 0.5);  // now anti-correlated with the original labels
}

TEST_P(AllClassifiersTest, HandlesMissingFeatureValues) {
  auto spec = EasySpec();
  spec.missing_rate = 0.1;
  auto split = data::MakeSyntheticSplit(spec, 800, 0, 400);
  ASSERT_TRUE(split.ok());
  auto clf = MakeClassifier(GetParam(), 7);
  ASSERT_TRUE(clf->Fit(split->train).ok());
  auto scores = clf->PredictScores(split->test.x);
  ASSERT_TRUE(scores.ok());
  for (double s : *scores) EXPECT_TRUE(std::isfinite(s));
  auto auc = Auc(*scores, split->test.labels());
  ASSERT_TRUE(auc.ok());
  EXPECT_GT(*auc, 0.6) << clf->name();
}

TEST_P(AllClassifiersTest, SurvivesConstantColumn) {
  SplitPair data = MakeEasyProblem();
  DataFrame with_const = data.train.x;
  ASSERT_TRUE(with_const
                  .AddColumn(Column("const",
                                    std::vector<double>(
                                        with_const.num_rows(), 3.0)))
                  .ok());
  auto train2 = MakeDataset(with_const, data.train.labels());
  ASSERT_TRUE(train2.ok());
  DataFrame test2 = data.test.x;
  ASSERT_TRUE(
      test2
          .AddColumn(Column("const",
                            std::vector<double>(test2.num_rows(), 3.0)))
          .ok());
  auto clf = MakeClassifier(GetParam(), 7);
  ASSERT_TRUE(clf->Fit(*train2).ok());
  auto scores = clf->PredictScores(test2);
  ASSERT_TRUE(scores.ok());
  for (double s : *scores) EXPECT_TRUE(std::isfinite(s));
}

INSTANTIATE_TEST_SUITE_P(
    AllNine, AllClassifiersTest,
    ::testing::ValuesIn(AllClassifierKinds()),
    [](const ::testing::TestParamInfo<ClassifierKind>& info) {
      std::string name = ClassifierShortName(info.param);
      // Test names must be alphanumeric.
      if (name == "kNN") name = "KNN";
      return name;
    });

TEST(ClassifierFitTest, ChunkedTrainingSetIsInvalidArgumentForAllNine) {
  // The classifiers read dense column values; an out-of-core frame must
  // come back as a Status, never abort the process.
  SplitPair data = MakeEasyProblem();
  SpillPool::Options options;
  auto pool = SpillPool::Create(options);
  ASSERT_TRUE(pool.ok());
  const Dataset chunked = ToChunkedDataset(data.train, *pool, kMinRowGroupRows);
  ASSERT_TRUE(chunked.x.HasChunkedColumns());
  for (const ClassifierKind kind : AllClassifierKinds()) {
    auto clf = MakeClassifier(kind, 7);
    const Status status = clf->Fit(chunked);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << ClassifierShortName(kind) << ": " << status.ToString();
  }
}

TEST(ForestImportanceTest, InformativeBeatsNuisance) {
  // Single informative column among nuisance: importance concentrates.
  Rng rng(3);
  DataFrame f;
  std::vector<double> signal(800);
  std::vector<double> labels(800);
  for (size_t i = 0; i < 800; ++i) {
    labels[i] = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
    signal[i] = rng.NextGaussian() + (labels[i] > 0.5 ? 2.0 : 0.0);
  }
  ASSERT_TRUE(f.AddColumn(Column("signal", signal)).ok());
  for (int c = 0; c < 4; ++c) {
    std::vector<double> noise(800);
    for (double& v : noise) v = rng.NextGaussian();
    ASSERT_TRUE(f.AddColumn(Column("noise" + std::to_string(c), noise)).ok());
  }
  auto train = MakeDataset(f, labels);
  ASSERT_TRUE(train.ok());
  RandomForestClassifier rf(11, 30);
  ASSERT_TRUE(rf.Fit(*train).ok());
  auto imps = rf.FeatureImportances();
  ASSERT_EQ(imps.size(), 5u);
  double sum = 0.0;
  for (double v : imps) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (size_t c = 1; c < imps.size(); ++c) {
    EXPECT_GT(imps[0], imps[c]) << "nuisance " << c;
  }
}

TEST(AdaBoostTest, PerfectlySeparableStops) {
  DataFrame f;
  std::vector<double> x(100);
  std::vector<double> y(100);
  for (size_t i = 0; i < 100; ++i) {
    x[i] = static_cast<double>(i);
    y[i] = i < 50 ? 0.0 : 1.0;
  }
  ASSERT_TRUE(f.AddColumn(Column("x", x)).ok());
  auto train = MakeDataset(f, y);
  ASSERT_TRUE(train.ok());
  AdaBoostClassifier ab(1);
  ASSERT_TRUE(ab.Fit(*train).ok());
  auto scores = ab.PredictScores(train->x);
  ASSERT_TRUE(scores.ok());
  auto auc = Auc(*scores, train->labels());
  EXPECT_DOUBLE_EQ(*auc, 1.0);
}

}  // namespace
}  // namespace models
}  // namespace safe
