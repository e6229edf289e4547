#pragma once
// FedAvg-style linear aggregation — the rule classical FL uses and the one
// Blanchard et al. proved cannot tolerate even a single Byzantine worker.
// It is both the honest-case baseline and the vulnerable control arm of the
// robustness experiments.

#include "agg/aggregator.hpp"

namespace abdhfl::agg {

class MeanAggregator final : public Aggregator {
 public:
  ModelVec aggregate(const std::vector<ModelVec>& updates) override;
  [[nodiscard]] std::string name() const override { return "mean"; }
  [[nodiscard]] double tolerance_fraction(std::size_t) const override { return 0.0; }
};

/// Dataset-size-weighted mean (true FedAvg); weights must be positive and
/// match the update count.
[[nodiscard]] ModelVec weighted_mean(const std::vector<ModelVec>& updates,
                                     const std::vector<double>& weights);

}  // namespace abdhfl::agg
