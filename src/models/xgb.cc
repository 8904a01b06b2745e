#include "src/models/xgb.h"

namespace safe {
namespace models {

Status XgbClassifier::Fit(const Dataset& train) {
  SAFE_RETURN_NOT_OK(ValidateTrainingSet(train, "xgb"));
  auto result = gbdt::Booster::Fit(train, nullptr, params_);
  if (!result.ok()) return result.status();
  booster_ = std::move(*result);
  return Status::OK();
}

Result<std::vector<double>> XgbClassifier::PredictScores(
    const DataFrame& x) const {
  if (!booster_.has_value()) {
    return Status::InvalidArgument("xgb: predict before fit");
  }
  return booster_->PredictProba(x);
}

}  // namespace models
}  // namespace safe
