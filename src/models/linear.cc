#include "src/models/linear.h"

#include <cmath>

#include "src/common/random.h"
#include "src/gbdt/loss.h"

namespace safe {
namespace models {

namespace {

Status ValidatePredict(bool fitted, size_t expected_cols,
                       const DataFrame& x) {
  if (!fitted) {
    return Status::InvalidArgument("linear model: predict before fit");
  }
  if (x.num_columns() != expected_cols) {
    return Status::InvalidArgument(
        "linear model: expected " + std::to_string(expected_cols) +
        " features, got " + std::to_string(x.num_columns()));
  }
  return Status::OK();
}

std::vector<double> Margins(const DenseMatrix& x,
                            const std::vector<double>& w, double b) {
  std::vector<double> out(x.rows, b);
  for (size_t r = 0; r < x.rows; ++r) {
    const double* row = x.row(r);
    double dot = 0.0;
    for (size_t c = 0; c < x.cols; ++c) dot += row[c] * w[c];
    out[r] += dot;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// LogisticRegressionClassifier

Status LogisticRegressionClassifier::Fit(const Dataset& train) {
  SAFE_RETURN_NOT_OK(ValidateTrainingSet(train, "linear model"));
  scaler_ = StandardScaler::Fit(train.x);
  DenseMatrix x = scaler_.Transform(train.x);
  const auto& y = train.labels();
  const size_t n = x.rows;
  const size_t m = x.cols;

  weights_.assign(m, 0.0);
  bias_ = 0.0;
  std::vector<double> vel_w(m, 0.0);
  double vel_b = 0.0;
  const double momentum = 0.9;
  const double lr = 0.5;
  const double lambda = l2_ / static_cast<double>(n);

  std::vector<double> grad_w(m);
  for (size_t iter = 0; iter < max_iters_; ++iter) {
    std::fill(grad_w.begin(), grad_w.end(), 0.0);
    double grad_b = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double* row = x.row(r);
      double margin = bias_;
      for (size_t c = 0; c < m; ++c) margin += row[c] * weights_[c];
      const double residual = gbdt::Sigmoid(margin) - y[r];
      for (size_t c = 0; c < m; ++c) grad_w[c] += residual * row[c];
      grad_b += residual;
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    double grad_norm = 0.0;
    for (size_t c = 0; c < m; ++c) {
      grad_w[c] = grad_w[c] * inv_n + lambda * weights_[c];
      grad_norm += grad_w[c] * grad_w[c];
    }
    grad_b *= inv_n;
    grad_norm += grad_b * grad_b;

    for (size_t c = 0; c < m; ++c) {
      vel_w[c] = momentum * vel_w[c] - lr * grad_w[c];
      weights_[c] += vel_w[c];
    }
    vel_b = momentum * vel_b - lr * grad_b;
    bias_ += vel_b;

    if (grad_norm < 1e-12) break;  // converged
  }
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> LogisticRegressionClassifier::PredictScores(
    const DataFrame& x) const {
  SAFE_RETURN_NOT_OK(ValidatePredict(fitted_, scaler_.num_columns(), x));
  DenseMatrix dense = scaler_.Transform(x);
  std::vector<double> margins = Margins(dense, weights_, bias_);
  for (double& v : margins) v = gbdt::Sigmoid(v);
  return margins;
}

// ---------------------------------------------------------------------------
// LinearSvmClassifier

Status LinearSvmClassifier::Fit(const Dataset& train) {
  SAFE_RETURN_NOT_OK(ValidateTrainingSet(train, "linear model"));
  scaler_ = StandardScaler::Fit(train.x);
  DenseMatrix x = scaler_.Transform(train.x);
  const auto& y = train.labels();
  const size_t n = x.rows;
  const size_t m = x.cols;

  weights_.assign(m, 0.0);
  bias_ = 0.0;
  Rng rng(seed_);

  // Pegasos: eta_t = 1 / (lambda * t), one pass = n stochastic steps.
  size_t t = 0;
  for (size_t epoch = 0; epoch < epochs_; ++epoch) {
    for (size_t step = 0; step < n; ++step) {
      ++t;
      const size_t r = static_cast<size_t>(rng.NextUint64Below(n));
      const double* row = x.row(r);
      const double target = y[r] > 0.5 ? 1.0 : -1.0;
      double margin = bias_;
      for (size_t c = 0; c < m; ++c) margin += row[c] * weights_[c];
      const double eta = 1.0 / (reg_lambda_ * static_cast<double>(t));
      // L2 shrink.
      const double shrink = 1.0 - eta * reg_lambda_;
      for (size_t c = 0; c < m; ++c) weights_[c] *= shrink;
      if (target * margin < 1.0) {
        for (size_t c = 0; c < m; ++c) weights_[c] += eta * target * row[c];
        bias_ += eta * target;
      }
    }
  }
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> LinearSvmClassifier::PredictScores(
    const DataFrame& x) const {
  SAFE_RETURN_NOT_OK(ValidatePredict(fitted_, scaler_.num_columns(), x));
  DenseMatrix dense = scaler_.Transform(x);
  return Margins(dense, weights_, bias_);
}

}  // namespace models
}  // namespace safe
