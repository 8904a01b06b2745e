#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/dataframe/dataframe.h"

namespace safe {
namespace models {

/// \brief Common interface of the nine evaluation classifiers
/// (paper Table III). Scores are ranking scores: any monotone transform of
/// P(y=1|x), which is all AUC evaluation needs.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on the dataset (binary labels). Implementations must be
  /// re-fittable: a second Fit discards the first model.
  [[nodiscard]] virtual Status Fit(const Dataset& train) = 0;

  /// Per-row ranking scores; requires a prior successful Fit and the same
  /// column count as training.
  [[nodiscard]] virtual Result<std::vector<double>> PredictScores(
      const DataFrame& x) const = 0;

  /// Human-readable name ("Random Forest").
  virtual std::string name() const = 0;
};

/// The paper's nine classifiers, in Table III row order.
enum class ClassifierKind {
  kAdaBoost,            // AB
  kDecisionTree,        // DT
  kExtraTrees,          // ET
  kKnn,                 // kNN
  kLogisticRegression,  // LR
  kMlp,                 // MLP
  kRandomForest,        // RF
  kLinearSvm,           // SVM
  kXgboost,             // XGB
};

/// The shared precondition at the top of every Classifier::Fit: rows,
/// columns and one label per row. The nine classifiers read dense column
/// values, so a chunked (out-of-core) frame is InvalidArgument — a Status
/// instead of the abort `Column::values()` would raise. `model` prefixes
/// the message ("knn", "tree model", ...).
[[nodiscard]] Status ValidateTrainingSet(const Dataset& train,
                                         const std::string& model);

/// All nine kinds, Table III order.
const std::vector<ClassifierKind>& AllClassifierKinds();

/// Paper abbreviation ("AB", "DT", ..., "XGB").
const char* ClassifierShortName(ClassifierKind kind);

/// Constructs a classifier with its library-default hyper-parameters
/// (chosen to mirror the scikit-learn / XGBoost defaults the paper uses,
/// scaled where noted in DESIGN.md).
std::unique_ptr<Classifier> MakeClassifier(ClassifierKind kind,
                                           uint64_t seed);

}  // namespace models
}  // namespace safe
