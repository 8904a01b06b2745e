#include "src/models/tree_models.h"

#include <algorithm>
#include <cmath>

#include "src/stats/descriptive.h"

namespace safe {
namespace models {

namespace {

Status ValidatePredict(bool fitted, size_t expected_cols,
                       const DataFrame& x) {
  if (!fitted) {
    return Status::InvalidArgument("tree model: predict before fit");
  }
  if (x.num_columns() != expected_cols) {
    return Status::InvalidArgument(
        "tree model: expected " + std::to_string(expected_cols) +
        " features, got " + std::to_string(x.num_columns()));
  }
  return Status::OK();
}

/// Traverses a CART over imputed *columns* for row r.
double PredictFromColumns(const CartTree& tree,
                          const std::vector<std::vector<double>>& columns,
                          size_t r) {
  const auto& nodes = tree.nodes();
  if (nodes.empty()) return 0.5;
  int idx = 0;
  while (!nodes[static_cast<size_t>(idx)].is_leaf()) {
    const CartNode& node = nodes[static_cast<size_t>(idx)];
    idx = (columns[static_cast<size_t>(node.feature)][r] <= node.threshold)
              ? node.left
              : node.right;
  }
  return nodes[static_cast<size_t>(idx)].proba;
}

}  // namespace

void ImputedColumns::FitMeans(const DataFrame& frame) {
  means_.resize(frame.num_columns());
  train_columns_.resize(frame.num_columns());
  for (size_t c = 0; c < frame.num_columns(); ++c) {
    const auto& values = frame.column(c).values();
    means_[c] = Mean(values);
    auto& out = train_columns_[c];
    out = values;
    for (double& v : out) {
      if (std::isnan(v)) v = means_[c];
    }
  }
}

std::vector<std::vector<double>> ImputedColumns::Transform(
    const DataFrame& frame) const {
  std::vector<std::vector<double>> out(frame.num_columns());
  for (size_t c = 0; c < frame.num_columns(); ++c) {
    out[c] = frame.column(c).values();
    for (double& v : out[c]) {
      if (std::isnan(v)) v = means_[c];
    }
  }
  return out;
}

std::vector<const std::vector<double>*> ImputedColumns::TrainColumnPtrs()
    const {
  std::vector<const std::vector<double>*> ptrs;
  ptrs.reserve(train_columns_.size());
  for (const auto& col : train_columns_) ptrs.push_back(&col);
  return ptrs;
}

// ---------------------------------------------------------------------------
// DecisionTreeClassifier

Status DecisionTreeClassifier::Fit(const Dataset& train) {
  SAFE_RETURN_NOT_OK(ValidateTrainingSet(train, "tree model"));
  imputer_.FitMeans(train.x);
  const size_t n = train.num_rows();
  std::vector<double> weights(n, 1.0);
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  CartParams params;  // defaults: deep exact tree
  Rng rng(seed_);
  SAFE_RETURN_NOT_OK(tree_.Fit(imputer_.TrainColumnPtrs(), train.labels(),
                               weights, rows, params, &rng));
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> DecisionTreeClassifier::PredictScores(
    const DataFrame& x) const {
  SAFE_RETURN_NOT_OK(ValidatePredict(fitted_, imputer_.num_columns(), x));
  auto columns = imputer_.Transform(x);
  std::vector<double> scores(x.num_rows());
  for (size_t r = 0; r < x.num_rows(); ++r) {
    scores[r] = PredictFromColumns(tree_, columns, r);
  }
  return scores;
}

// ---------------------------------------------------------------------------
// ForestClassifier (RF / ET)

Status ForestClassifier::Fit(const Dataset& train) {
  SAFE_RETURN_NOT_OK(ValidateTrainingSet(train, "tree model"));
  if (num_trees_ == 0) {
    return Status::InvalidArgument("forest: num_trees must be > 0");
  }
  imputer_.FitMeans(train.x);
  const size_t n = train.num_rows();
  const size_t m = train.x.num_columns();

  CartParams params;
  params.max_features = std::max<size_t>(
      1, static_cast<size_t>(std::sqrt(static_cast<double>(m))));
  params.random_thresholds = random_thresholds_;

  std::vector<double> weights(n, 1.0);
  auto column_ptrs = imputer_.TrainColumnPtrs();

  trees_.assign(num_trees_, CartTree());
  Rng seeder(seed_);
  Status failure;
  for (size_t t = 0; t < num_trees_; ++t) {
    Rng rng = seeder.Fork();
    std::vector<size_t> rows(n);
    if (bootstrap_) {
      for (size_t i = 0; i < n; ++i) {
        rows[i] = static_cast<size_t>(rng.NextUint64Below(n));
      }
    } else {
      for (size_t i = 0; i < n; ++i) rows[i] = i;
    }
    Status st = trees_[t].Fit(column_ptrs, train.labels(), weights, rows,
                              params, &rng);
    if (!st.ok()) failure = st;
  }
  SAFE_RETURN_NOT_OK(failure);
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> ForestClassifier::PredictScores(
    const DataFrame& x) const {
  SAFE_RETURN_NOT_OK(ValidatePredict(fitted_, imputer_.num_columns(), x));
  auto columns = imputer_.Transform(x);
  std::vector<double> scores(x.num_rows(), 0.0);
  for (const auto& tree : trees_) {
    for (size_t r = 0; r < x.num_rows(); ++r) {
      scores[r] += PredictFromColumns(tree, columns, r);
    }
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& s : scores) s *= inv;
  return scores;
}

std::vector<double> ForestClassifier::FeatureImportances() const {
  std::vector<double> importances(imputer_.num_columns(), 0.0);
  for (const auto& tree : trees_) {
    for (const auto& node : tree.nodes()) {
      if (!node.is_leaf()) {
        importances[static_cast<size_t>(node.feature)] += node.gain;
      }
    }
  }
  double total = 0.0;
  for (double v : importances) total += v;
  if (total > 0.0) {
    for (double& v : importances) v /= total;
  }
  return importances;
}

// ---------------------------------------------------------------------------
// AdaBoostClassifier (SAMME, decision stumps)

Status AdaBoostClassifier::Fit(const Dataset& train) {
  SAFE_RETURN_NOT_OK(ValidateTrainingSet(train, "tree model"));
  if (num_rounds_ == 0) {
    return Status::InvalidArgument("adaboost: num_rounds must be > 0");
  }
  imputer_.FitMeans(train.x);
  stumps_.clear();
  alphas_.clear();

  const size_t n = train.num_rows();
  const auto& labels = train.labels();
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;

  CartParams params;
  params.max_depth = 1;
  auto column_ptrs = imputer_.TrainColumnPtrs();
  Rng rng(seed_);

  for (size_t round = 0; round < num_rounds_; ++round) {
    CartTree stump;
    SAFE_RETURN_NOT_OK(
        stump.Fit(column_ptrs, labels, weights, rows, params, &rng));

    // Weighted error of the hard prediction over the training columns.
    double err = 0.0;
    std::vector<char> wrong(n);
    for (size_t i = 0; i < n; ++i) {
      double proba = 0.5;
      {
        const auto& nodes = stump.nodes();
        int idx = 0;
        while (!nodes[static_cast<size_t>(idx)].is_leaf()) {
          const CartNode& node = nodes[static_cast<size_t>(idx)];
          idx = ((*column_ptrs[static_cast<size_t>(node.feature)])[i] <=
                 node.threshold)
                    ? node.left
                    : node.right;
        }
        proba = nodes[static_cast<size_t>(idx)].proba;
      }
      const bool predicted_pos = proba > 0.5;
      const bool is_pos = labels[i] > 0.5;
      wrong[i] = (predicted_pos != is_pos) ? 1 : 0;
      if (wrong[i]) err += weights[i];
    }

    if (err <= 1e-12) {
      // Perfect stump: dominate the vote and stop.
      stumps_.push_back(std::move(stump));
      alphas_.push_back(10.0);
      break;
    }
    if (err >= 0.5) {
      // No better than chance; SAMME stops here.
      if (stumps_.empty()) {
        // Keep one stump so the model is usable (predicts priors).
        stumps_.push_back(std::move(stump));
        alphas_.push_back(0.0);
      }
      break;
    }
    const double alpha = std::log((1.0 - err) / err);
    for (size_t i = 0; i < n; ++i) {
      if (wrong[i]) weights[i] *= std::exp(alpha);
    }
    double total = 0.0;
    for (double w : weights) total += w;
    for (double& w : weights) w /= total;

    stumps_.push_back(std::move(stump));
    alphas_.push_back(alpha);
  }
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> AdaBoostClassifier::PredictScores(
    const DataFrame& x) const {
  SAFE_RETURN_NOT_OK(ValidatePredict(fitted_, imputer_.num_columns(), x));
  auto columns = imputer_.Transform(x);
  std::vector<double> scores(x.num_rows(), 0.0);
  for (size_t t = 0; t < stumps_.size(); ++t) {
    for (size_t r = 0; r < x.num_rows(); ++r) {
      const double proba = PredictFromColumns(stumps_[t], columns, r);
      scores[r] += alphas_[t] * (proba > 0.5 ? 1.0 : -1.0);
    }
  }
  return scores;
}

}  // namespace models
}  // namespace safe
