#include "agg/mean.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace abdhfl::agg {

ModelVec MeanAggregator::aggregate(const std::vector<ModelVec>& updates) {
  const std::size_t n = updates.size();
  telemetry_ = {n, n, 0.0, 0.0, {}};
  if (forensics() && n > 0) {
    telemetry_.verdicts.assign(n, {true, 1.0 / static_cast<double>(n), 0.0});
  }
  return tensor::mean_of(updates);
}

ModelVec weighted_mean(const std::vector<ModelVec>& updates,
                       const std::vector<double>& weights) {
  const std::size_t dim = tensor::checked_common_size(updates);
  if (weights.size() != updates.size()) {
    throw std::invalid_argument("weighted_mean: weight count mismatch");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w <= 0.0) throw std::invalid_argument("weighted_mean: non-positive weight");
    total += w;
  }
  std::vector<double> acc(dim, 0.0);
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const double w = weights[k] / total;
    for (std::size_t i = 0; i < dim; ++i) acc[i] += w * updates[k][i];
  }
  ModelVec out(dim);
  for (std::size_t i = 0; i < dim; ++i) out[i] = static_cast<float>(acc[i]);
  return out;
}

}  // namespace abdhfl::agg
