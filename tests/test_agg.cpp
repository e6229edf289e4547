// Unit tests for src/agg: every aggregation rule's contract, plus
// rule-specific robustness guarantees.

#include <gtest/gtest.h>

#include <cmath>

#include "agg/aggregator.hpp"
#include "agg/clipping.hpp"
#include "agg/geomed.hpp"
#include "agg/krum.hpp"
#include "agg/mean.hpp"
#include "agg/median.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace abdhfl::agg {
namespace {

std::vector<ModelVec> honest_cloud(std::size_t n, std::size_t dim, util::Rng& rng,
                                   double spread = 0.1) {
  std::vector<ModelVec> out(n, ModelVec(dim));
  for (auto& u : out) {
    for (std::size_t i = 0; i < dim; ++i) {
      u[i] = static_cast<float>(1.0 + rng.normal(0.0, spread));
    }
  }
  return out;
}

TEST(Mean, IsAverage) {
  MeanAggregator mean_rule;
  const std::vector<ModelVec> updates = {{0.0f, 2.0f}, {2.0f, 4.0f}};
  const auto out = mean_rule.aggregate(updates);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 3.0f);
  EXPECT_THROW(mean_rule.aggregate({}), std::invalid_argument);
}

TEST(Mean, WeightedMean) {
  const std::vector<ModelVec> updates = {{0.0f}, {4.0f}};
  const auto out = weighted_mean(updates, {1.0, 3.0});
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_THROW(weighted_mean(updates, {1.0}), std::invalid_argument);
  EXPECT_THROW(weighted_mean(updates, {1.0, -1.0}), std::invalid_argument);
}

TEST(Mean, SingleOutlierDestroysMean) {
  // Blanchard et al.'s observation: linear aggregation tolerates zero
  // Byzantine inputs.
  util::Rng rng(1);
  auto updates = honest_cloud(10, 4, rng);
  updates.push_back(ModelVec(4, 1e9f));
  MeanAggregator mean_rule;
  const auto out = mean_rule.aggregate(updates);
  EXPECT_GT(std::abs(out[0]), 1e6f);
}

TEST(Krum, PicksHonestDespiteOutliers) {
  util::Rng rng(2);
  auto updates = honest_cloud(8, 16, rng);
  // Two far-away Byzantine updates (f = 2 of 10 = 20% < 25%).
  updates.push_back(ModelVec(16, 50.0f));
  updates.push_back(ModelVec(16, -50.0f));

  KrumAggregator krum({0.25, 1});
  const auto out = krum.aggregate(updates);
  // Output must be one of the honest inputs (classic Krum selects).
  bool is_honest_input = false;
  for (std::size_t i = 0; i < 8; ++i) is_honest_input |= out == updates[i];
  EXPECT_TRUE(is_honest_input);
  EXPECT_NEAR(out[0], 1.0f, 0.5f);
}

TEST(Krum, MultiKrumAveragesSelected) {
  util::Rng rng(3);
  auto updates = honest_cloud(6, 8, rng);
  updates.push_back(ModelVec(8, 100.0f));
  KrumAggregator multikrum({0.2, 3});
  const auto out = multikrum.aggregate(updates);
  EXPECT_NEAR(out[0], 1.0f, 0.3f);
}

TEST(Krum, AdaptiveSelectionExcludesF) {
  util::Rng rng(4);
  auto updates = honest_cloud(3, 4, rng);
  updates.push_back(ModelVec(4, 100.0f));  // 1 bad of 4, f = 1
  KrumAggregator adaptive({0.25, 0});
  const auto out = adaptive.aggregate(updates);
  // k = n - f = 3 -> the three honest ones averaged.
  EXPECT_NEAR(out[0], 1.0f, 0.3f);
}

TEST(Krum, ScoresAndSelectOrdering) {
  const std::vector<ModelVec> updates = {{0.0f}, {0.1f}, {0.2f}, {10.0f}};
  const auto scores = KrumAggregator::scores(updates, 1);
  ASSERT_EQ(scores.size(), 4u);
  EXPECT_GT(scores[3], scores[1]);
  const auto chosen = KrumAggregator::select(updates, 1, 2);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_NE(chosen[0], 3u);
  EXPECT_NE(chosen[1], 3u);
}

TEST(Krum, SmallInputsFallBack) {
  KrumAggregator krum({0.25, 1});
  const std::vector<ModelVec> two = {{0.0f}, {2.0f}};
  EXPECT_FLOAT_EQ(krum.aggregate(two)[0], 1.0f);  // mean fallback
  EXPECT_THROW(krum.aggregate({}), std::invalid_argument);
  EXPECT_THROW(KrumAggregator({1.5, 1}), std::invalid_argument);
}

TEST(Median, CoordinatewiseOddEven) {
  MedianAggregator median;
  const std::vector<ModelVec> odd = {{1.0f, 5.0f}, {2.0f, 6.0f}, {9.0f, 4.0f}};
  const auto out = median.aggregate(odd);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 5.0f);
  const std::vector<ModelVec> even = {{1.0f}, {2.0f}, {3.0f}, {10.0f}};
  EXPECT_FLOAT_EQ(median.aggregate(even)[0], 2.5f);
}

TEST(Median, BoundedByHonestRangeUnderMinority) {
  util::Rng rng(5);
  auto updates = honest_cloud(7, 8, rng);
  for (int k = 0; k < 3; ++k) updates.push_back(ModelVec(8, 1e6f));  // 3 of 10
  MedianAggregator median;
  const auto out = median.aggregate(updates);
  for (float v : out) {
    EXPECT_GT(v, 0.0f);
    EXPECT_LT(v, 2.0f);  // stays in the honest cloud's range
  }
}

TEST(TrimmedMean, DropsTails) {
  TrimmedMeanAggregator trimmed(0.25);
  const std::vector<ModelVec> updates = {{-100.0f}, {1.0f}, {2.0f}, {100.0f}};
  EXPECT_FLOAT_EQ(trimmed.aggregate(updates)[0], 1.5f);
  EXPECT_THROW(TrimmedMeanAggregator(0.5), std::invalid_argument);
}

TEST(TrimmedMean, KeepsAtLeastOneValue) {
  TrimmedMeanAggregator trimmed(0.45);
  const std::vector<ModelVec> two = {{1.0f}, {3.0f}};
  const auto out = trimmed.aggregate(two);
  EXPECT_GE(out[0], 1.0f);
  EXPECT_LE(out[0], 3.0f);
}

TEST(GeoMed, MatchesMedianInOneDim) {
  GeoMedAggregator geomed;
  const std::vector<ModelVec> updates = {{1.0f}, {2.0f}, {100.0f}};
  EXPECT_NEAR(geomed.aggregate(updates)[0], 2.0f, 0.1f);
}

TEST(GeoMed, RobustToMinorityOutliers) {
  util::Rng rng(6);
  auto updates = honest_cloud(9, 16, rng);
  for (int k = 0; k < 4; ++k) updates.push_back(ModelVec(16, 1e5f));
  GeoMedAggregator geomed;
  const auto out = geomed.aggregate(updates);
  EXPECT_NEAR(out[0], 1.0f, 0.5f);
  EXPECT_GT(geomed.last_iterations(), 0u);
}

TEST(GeoMed, SingleInputPassthrough) {
  GeoMedAggregator geomed;
  const std::vector<ModelVec> one = {{5.0f, 6.0f}};
  EXPECT_EQ(geomed.aggregate(one), one.front());
}

TEST(CenteredClip, BoundsByzantineDisplacement) {
  util::Rng rng(7);
  auto updates = honest_cloud(9, 8, rng);
  updates.push_back(ModelVec(8, 1e6f));
  CenteredClipAggregator clip({1.0, 3});
  clip.set_reference(ModelVec(8, 1.0f));
  const auto out = clip.aggregate(updates);
  // Each pass moves the estimate at most radius; 3 passes from reference 1.
  for (float v : out) EXPECT_LT(std::abs(v - 1.0f), 3.5f);
}

TEST(CenteredClip, NoReferenceFallsBackToMean) {
  CenteredClipAggregator clip({100.0, 1});
  const std::vector<ModelVec> updates = {{0.0f}, {2.0f}};
  EXPECT_NEAR(clip.aggregate(updates)[0], 1.0f, 1e-4f);
  EXPECT_THROW(CenteredClipAggregator({0.0, 1}), std::invalid_argument);
}

TEST(NormFilter, DropsFarUpdates) {
  util::Rng rng(8);
  auto updates = honest_cloud(8, 4, rng);
  updates.push_back(ModelVec(4, 1e4f));
  NormFilterAggregator filter({2.0});
  filter.set_reference(ModelVec(4, 1.0f));
  const auto out = filter.aggregate(updates);
  EXPECT_EQ(filter.last_kept(), 8u);
  EXPECT_NEAR(out[0], 1.0f, 0.3f);
}

TEST(NormFilter, AllEqualKeepsEverything) {
  NormFilterAggregator filter({2.0});
  const std::vector<ModelVec> same(4, ModelVec{1.0f, 1.0f});
  filter.set_reference(ModelVec{1.0f, 1.0f});
  const auto out = filter.aggregate(same);
  EXPECT_EQ(filter.last_kept(), 4u);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
}

TEST(Factory, MakesEveryAdvertisedRule) {
  for (const auto& name : aggregator_names()) {
    const auto rule = make_aggregator(name);
    ASSERT_NE(rule, nullptr) << name;
    // Contract: aggregating three identical vectors returns that vector.
    const std::vector<ModelVec> same(3, ModelVec{1.5f, -2.5f});
    const auto out = rule->aggregate(same);
    EXPECT_NEAR(out[0], 1.5f, 1e-3f) << name;
    EXPECT_NEAR(out[1], -2.5f, 1e-3f) << name;
  }
  EXPECT_THROW(make_aggregator("nope"), std::invalid_argument);
}

TEST(Factory, ToleranceFractions) {
  EXPECT_DOUBLE_EQ(make_aggregator("mean")->tolerance_fraction(10), 0.0);
  EXPECT_DOUBLE_EQ(make_aggregator("krum", 0.25)->tolerance_fraction(10), 0.25);
  EXPECT_DOUBLE_EQ(make_aggregator("median")->tolerance_fraction(10), 0.5);
}

}  // namespace
}  // namespace abdhfl::agg
