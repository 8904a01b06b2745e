#include "src/models/classifier.h"
#include "src/models/knn.h"
#include "src/models/linear.h"
#include "src/models/mlp.h"
#include "src/models/tree_models.h"
#include "src/models/xgb.h"

namespace safe {
namespace models {

Status ValidateTrainingSet(const Dataset& train, const std::string& model) {
  if (train.num_rows() == 0 || train.x.num_columns() == 0) {
    return Status::InvalidArgument(model + ": empty training data");
  }
  if (train.y == nullptr || train.y->size() != train.num_rows()) {
    return Status::InvalidArgument(model + ": label size mismatch");
  }
  if (train.x.HasChunkedColumns()) {
    return Status::InvalidArgument(
        model + ": chunked (out-of-core) training frames are not supported; "
                "gather the columns into a resident frame first");
  }
  return Status::OK();
}

const std::vector<ClassifierKind>& AllClassifierKinds() {
  static const std::vector<ClassifierKind> kKinds = {
      ClassifierKind::kAdaBoost,           ClassifierKind::kDecisionTree,
      ClassifierKind::kExtraTrees,         ClassifierKind::kKnn,
      ClassifierKind::kLogisticRegression, ClassifierKind::kMlp,
      ClassifierKind::kRandomForest,       ClassifierKind::kLinearSvm,
      ClassifierKind::kXgboost,
  };
  return kKinds;
}

const char* ClassifierShortName(ClassifierKind kind) {
  switch (kind) {
    case ClassifierKind::kAdaBoost:
      return "AB";
    case ClassifierKind::kDecisionTree:
      return "DT";
    case ClassifierKind::kExtraTrees:
      return "ET";
    case ClassifierKind::kKnn:
      return "kNN";
    case ClassifierKind::kLogisticRegression:
      return "LR";
    case ClassifierKind::kMlp:
      return "MLP";
    case ClassifierKind::kRandomForest:
      return "RF";
    case ClassifierKind::kLinearSvm:
      return "SVM";
    case ClassifierKind::kXgboost:
      return "XGB";
  }
  return "?";
}

std::unique_ptr<Classifier> MakeClassifier(ClassifierKind kind,
                                           uint64_t seed) {
  switch (kind) {
    case ClassifierKind::kAdaBoost:
      return std::make_unique<AdaBoostClassifier>(seed);
    case ClassifierKind::kDecisionTree:
      return std::make_unique<DecisionTreeClassifier>(seed);
    case ClassifierKind::kExtraTrees:
      return std::make_unique<ExtraTreesClassifier>(seed);
    case ClassifierKind::kKnn:
      return std::make_unique<KnnClassifier>(seed);
    case ClassifierKind::kLogisticRegression:
      return std::make_unique<LogisticRegressionClassifier>(seed);
    case ClassifierKind::kMlp:
      return std::make_unique<MlpClassifier>(seed);
    case ClassifierKind::kRandomForest:
      return std::make_unique<RandomForestClassifier>(seed);
    case ClassifierKind::kLinearSvm:
      return std::make_unique<LinearSvmClassifier>(seed);
    case ClassifierKind::kXgboost:
      return std::make_unique<XgbClassifier>(seed);
  }
  return nullptr;
}

}  // namespace models
}  // namespace safe
