#include "src/models/mlp.h"

#include <algorithm>
#include <cmath>

#include "src/common/random.h"
#include "src/gbdt/loss.h"

namespace safe {
namespace models {

namespace {

/// Adam state for one parameter vector.
struct AdamState {
  std::vector<double> m;
  std::vector<double> v;

  explicit AdamState(size_t n) : m(n, 0.0), v(n, 0.0) {}

  void Step(std::vector<double>* params, const std::vector<double>& grad,
            double lr, size_t t) {
    constexpr double kBeta1 = 0.9;
    constexpr double kBeta2 = 0.999;
    constexpr double kEps = 1e-8;
    const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t));
    const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t));
    for (size_t i = 0; i < params->size(); ++i) {
      m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * grad[i];
      v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * grad[i] * grad[i];
      (*params)[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + kEps);
    }
  }
};

}  // namespace

Status MlpClassifier::Fit(const Dataset& train) {
  SAFE_RETURN_NOT_OK(ValidateTrainingSet(train, "mlp"));
  if (hidden_ == 0 || epochs_ == 0 || batch_size_ == 0) {
    return Status::InvalidArgument("mlp: hidden/epochs/batch must be > 0");
  }
  scaler_ = StandardScaler::Fit(train.x);
  DenseMatrix x = scaler_.Transform(train.x);
  const auto& y = train.labels();
  const size_t n = x.rows;
  inputs_ = x.cols;

  Rng rng(seed_);
  // He initialization for the ReLU layer.
  const double scale1 = std::sqrt(2.0 / static_cast<double>(inputs_));
  const double scale2 = std::sqrt(2.0 / static_cast<double>(hidden_));
  w1_.resize(hidden_ * inputs_);
  for (double& w : w1_) w = scale1 * rng.NextGaussian();
  b1_.assign(hidden_, 0.0);
  w2_.resize(hidden_);
  for (double& w : w2_) w = scale2 * rng.NextGaussian();
  b2_ = 0.0;

  AdamState adam_w1(w1_.size());
  AdamState adam_b1(b1_.size());
  AdamState adam_w2(w2_.size());
  AdamState adam_b2(1);

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  std::vector<double> grad_w1(w1_.size());
  std::vector<double> grad_b1(b1_.size());
  std::vector<double> grad_w2(w2_.size());
  std::vector<double> grad_b2(1);
  std::vector<double> hidden_act(hidden_);
  size_t adam_t = 0;

  for (size_t epoch = 0; epoch < epochs_; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < n; start += batch_size_) {
      const size_t end = std::min(n, start + batch_size_);
      const double inv_batch = 1.0 / static_cast<double>(end - start);
      std::fill(grad_w1.begin(), grad_w1.end(), 0.0);
      std::fill(grad_b1.begin(), grad_b1.end(), 0.0);
      std::fill(grad_w2.begin(), grad_w2.end(), 0.0);
      grad_b2[0] = 0.0;

      for (size_t i = start; i < end; ++i) {
        const size_t r = order[i];
        const double* row = x.row(r);
        // Forward.
        for (size_t h = 0; h < hidden_; ++h) {
          double z = b1_[h];
          const double* wrow = w1_.data() + h * inputs_;
          for (size_t c = 0; c < inputs_; ++c) z += wrow[c] * row[c];
          hidden_act[h] = z > 0.0 ? z : 0.0;
        }
        double logit = b2_;
        for (size_t h = 0; h < hidden_; ++h) {
          logit += w2_[h] * hidden_act[h];
        }
        const double p = gbdt::Sigmoid(logit);
        const double dlogit = (p - y[r]) * inv_batch;
        // Backward.
        grad_b2[0] += dlogit;
        for (size_t h = 0; h < hidden_; ++h) {
          grad_w2[h] += dlogit * hidden_act[h];
          if (hidden_act[h] > 0.0) {
            const double dh = dlogit * w2_[h];
            grad_b1[h] += dh;
            double* gw = grad_w1.data() + h * inputs_;
            for (size_t c = 0; c < inputs_; ++c) gw[c] += dh * row[c];
          }
        }
      }
      ++adam_t;
      adam_w1.Step(&w1_, grad_w1, learning_rate_, adam_t);
      adam_b1.Step(&b1_, grad_b1, learning_rate_, adam_t);
      adam_w2.Step(&w2_, grad_w2, learning_rate_, adam_t);
      std::vector<double> b2_vec{b2_};
      adam_b2.Step(&b2_vec, grad_b2, learning_rate_, adam_t);
      b2_ = b2_vec[0];
    }
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<double> MlpClassifier::Forward(const double* row) const {
  std::vector<double> hidden(hidden_);
  for (size_t h = 0; h < hidden_; ++h) {
    double z = b1_[h];
    const double* wrow = w1_.data() + h * inputs_;
    for (size_t c = 0; c < inputs_; ++c) z += wrow[c] * row[c];
    hidden[h] = z > 0.0 ? z : 0.0;
  }
  return hidden;
}

Result<std::vector<double>> MlpClassifier::PredictScores(
    const DataFrame& x) const {
  if (!fitted_) {
    return Status::InvalidArgument("mlp: predict before fit");
  }
  if (x.num_columns() != scaler_.num_columns()) {
    return Status::InvalidArgument(
        "mlp: expected " + std::to_string(scaler_.num_columns()) +
        " features, got " + std::to_string(x.num_columns()));
  }
  DenseMatrix dense = scaler_.Transform(x);
  std::vector<double> scores(dense.rows);
  for (size_t r = 0; r < dense.rows; ++r) {
    const std::vector<double> hidden = Forward(dense.row(r));
    double logit = b2_;
    for (size_t h = 0; h < hidden_; ++h) logit += w2_[h] * hidden[h];
    scores[r] = gbdt::Sigmoid(logit);
  }
  return scores;
}

}  // namespace models
}  // namespace safe
