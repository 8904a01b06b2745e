#include "src/models/knn.h"

#include <algorithm>
#include <cmath>

#include "src/common/thread_pool.h"

namespace safe {
namespace models {

Status KnnClassifier::Fit(const Dataset& train) {
  SAFE_RETURN_NOT_OK(ValidateTrainingSet(train, "knn"));
  if (k_ == 0) {
    return Status::InvalidArgument("knn: k must be > 0");
  }
  scaler_ = StandardScaler::Fit(train.x);
  train_x_ = scaler_.Transform(train.x);
  train_y_ = train.labels();
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> KnnClassifier::PredictScores(
    const DataFrame& x) const {
  if (!fitted_) {
    return Status::InvalidArgument("knn: predict before fit");
  }
  if (x.num_columns() != scaler_.num_columns()) {
    return Status::InvalidArgument(
        "knn: expected " + std::to_string(scaler_.num_columns()) +
        " features, got " + std::to_string(x.num_columns()));
  }
  DenseMatrix query = scaler_.Transform(x);
  const size_t k = std::min(k_, train_x_.rows);
  std::vector<double> scores(query.rows, 0.0);

  ParallelFor(0, query.rows, [&](size_t q) {
    const double* qrow = query.row(q);
    // Max-heap of (distance, index) capped at k: O(n log k) per query.
    std::vector<std::pair<double, size_t>> heap;
    heap.reserve(k + 1);
    for (size_t t = 0; t < train_x_.rows; ++t) {
      const double* trow = train_x_.row(t);
      double dist = 0.0;
      for (size_t c = 0; c < train_x_.cols; ++c) {
        const double d = qrow[c] - trow[c];
        dist += d * d;
      }
      if (heap.size() < k) {
        heap.emplace_back(dist, t);
        std::push_heap(heap.begin(), heap.end());
      } else if (dist < heap.front().first) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = {dist, t};
        std::push_heap(heap.begin(), heap.end());
      }
    }
    double positives = 0.0;
    for (const auto& [dist, t] : heap) {
      if (train_y_[t] > 0.5) positives += 1.0;
    }
    scores[q] = positives / static_cast<double>(heap.size());
  });
  return scores;
}

}  // namespace models
}  // namespace safe
