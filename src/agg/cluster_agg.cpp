#include "agg/cluster_agg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace abdhfl::agg {

ClusterAggregator::ClusterAggregator(ClusterAggConfig config) : config_(config) {
  if (config_.similarity_threshold < -1.0 || config_.similarity_threshold > 1.0) {
    throw std::invalid_argument("ClusterAggregator: threshold out of [-1,1]");
  }
}

double ClusterAggregator::cosine(std::span<const float> a, std::span<const float> b) {
  const double na = tensor::norm2(a);
  const double nb = tensor::norm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return tensor::dot(a, b) / (na * nb);
}

ModelVec ClusterAggregator::aggregate(const std::vector<ModelVec>& updates) {
  tensor::checked_common_size(updates);
  const std::size_t n = updates.size();

  // Greedy leader clustering: each update joins the first existing cluster
  // whose representative (its first member) is similar enough; otherwise it
  // founds a new cluster.
  std::vector<std::size_t> representative;  // index of each cluster's founder
  last_labels_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    bool placed = false;
    for (std::size_t c = 0; c < representative.size(); ++c) {
      if (cosine(updates[i], updates[representative[c]]) >=
          config_.similarity_threshold) {
        last_labels_[i] = c;
        placed = true;
        break;
      }
    }
    if (!placed) {
      last_labels_[i] = representative.size();
      representative.push_back(i);
    }
  }

  // The largest cluster is assumed benign (ties: lower label wins).
  std::vector<std::size_t> counts(representative.size(), 0);
  for (std::size_t label : last_labels_) ++counts[label];
  const std::size_t best = static_cast<std::size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());

  std::vector<ModelVec> kept;
  for (std::size_t i = 0; i < n; ++i) {
    if (last_labels_[i] == best) kept.push_back(updates[i]);
  }
  telemetry_.inputs = n;
  telemetry_.kept = kept.size();
  telemetry_.score_mean = 0.0;
  telemetry_.score_max = 0.0;
  telemetry_.verdicts.clear();
  if (forensics()) {
    // Score each input by cosine dissimilarity to the winning cluster's
    // representative (diagnostic only; the clustering itself is unchanged).
    const std::size_t rep = representative[best];
    telemetry_.verdicts.resize(n);
    const double w = 1.0 / static_cast<double>(kept.size());
    for (std::size_t i = 0; i < n; ++i) {
      const bool in_best = last_labels_[i] == best;
      telemetry_.verdicts[i] = {in_best, in_best ? w : 0.0,
                                1.0 - cosine(updates[i], updates[rep])};
    }
  }
  return tensor::mean_of(kept);
}

}  // namespace abdhfl::agg
