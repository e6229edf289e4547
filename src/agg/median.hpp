#pragma once
// Coordinate-wise Median and Trimmed Mean (Yin et al., ICML 2018).  Median
// is what the paper's non-IID experiments deploy at the partial-aggregation
// levels; the trimmed mean keeps the interior (1-2β) fraction of each
// coordinate.
//
// Both rules sort every coordinate's n values with one Batcher sorting
// network applied to row-major tiles (tensor::kern::sort_tile_columns) and
// read the answer from the sorted rows: the median is row n/2, or the float
// mean of rows n/2-1 and n/2 for even n; the trimmed mean adds its kept rows
// into a double in ascending order.
//
// Output contract, per coordinate, against sorting the column with std::sort
// / std::nth_element:
// - A column without NaN is bitwise equal, except that where +0.0 and -0.0
//   meet, the median may return a zero of the other sign (it compares ==;
//   nth_element's choice between equal values is unspecified anyway).
// - A column holding NaN gets a value that is a deterministic function of the
//   column: identical across calls and across thread counts.  No comparison
//   ever moves a NaN, so it is not ordered the way any particular std::sort
//   would leave it (std::sort on NaN is undefined behaviour).

#include "agg/aggregator.hpp"

namespace abdhfl::agg {

class MedianAggregator final : public Aggregator {
 public:
  ModelVec aggregate(const std::vector<ModelVec>& updates) override;
  [[nodiscard]] std::string name() const override { return "median"; }
};

class TrimmedMeanAggregator final : public Aggregator {
 public:
  /// beta = per-side trim fraction (0 <= beta < 0.5).
  explicit TrimmedMeanAggregator(double beta);

  ModelVec aggregate(const std::vector<ModelVec>& updates) override;
  [[nodiscard]] std::string name() const override { return "trimmed_mean"; }
  [[nodiscard]] double tolerance_fraction(std::size_t) const override { return beta_; }

 private:
  double beta_;
};

}  // namespace abdhfl::agg
