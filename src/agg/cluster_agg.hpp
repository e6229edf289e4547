#pragma once
// Cosine-similarity clustering aggregation (Table II's "Clustering"
// strategy; Sattler et al. 2020 group benign clients into the largest
// cluster).  Updates are greedily clustered by pairwise cosine similarity;
// the largest cluster is assumed benign and averaged.

#include "agg/aggregator.hpp"

namespace abdhfl::agg {

struct ClusterAggConfig {
  /// Two updates join the same cluster when their cosine similarity is at
  /// least this threshold.
  double similarity_threshold = 0.0;
};

class ClusterAggregator final : public Aggregator {
 public:
  explicit ClusterAggregator(ClusterAggConfig config = {});

  ModelVec aggregate(const std::vector<ModelVec>& updates) override;
  [[nodiscard]] std::string name() const override { return "clustering"; }

  /// Cluster label of every update in the last aggregate() call.
  [[nodiscard]] const std::vector<std::size_t>& last_labels() const noexcept {
    return last_labels_;
  }

  /// Pairwise cosine similarity (0 when either vector is zero) — exposed for
  /// tests.
  [[nodiscard]] static double cosine(std::span<const float> a, std::span<const float> b);

 private:
  ClusterAggConfig config_;
  std::vector<std::size_t> last_labels_;
};

}  // namespace abdhfl::agg
