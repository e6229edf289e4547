// Property-based suites (parameterized gtest): invariants that must hold for
// every aggregation rule, every consensus protocol, and every model attack,
// plus Theorem 2 sweeps over the (γ1, γ2, L) grid.

#include <gtest/gtest.h>

#include <cmath>

#include "agg/aggregator.hpp"
#include "attacks/model_attack.hpp"
#include "consensus/consensus.hpp"
#include "tensor/ops.hpp"
#include "topology/byzantine.hpp"
#include "topology/tree.hpp"
#include "util/rng.hpp"

namespace abdhfl {
namespace {

using agg::ModelVec;

std::vector<ModelVec> gaussian_cloud(std::size_t n, std::size_t dim, double center,
                                     double spread, util::Rng& rng) {
  std::vector<ModelVec> out(n, ModelVec(dim));
  for (auto& u : out) {
    for (float& v : u) v = static_cast<float>(rng.normal(center, spread));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Every aggregation rule: structural invariants.

class AggregatorProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(AggregatorProperty, IdempotentOnIdenticalInputs) {
  auto rule = agg::make_aggregator(GetParam());
  const std::vector<ModelVec> same(5, ModelVec{2.0f, -1.0f, 0.5f});
  const auto out = rule->aggregate(same);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(out[i], same[0][i], 1e-3f);
}

TEST_P(AggregatorProperty, PermutationInvariant) {
  if (GetParam() == "clustering") {
    GTEST_SKIP() << "greedy leader clustering is order-dependent by design";
  }
  util::Rng rng(1);
  auto updates = gaussian_cloud(9, 12, 0.0, 1.0, rng);
  auto rule_a = agg::make_aggregator(GetParam());
  const auto a = rule_a->aggregate(updates);
  std::reverse(updates.begin(), updates.end());
  auto rule_b = agg::make_aggregator(GetParam());
  const auto b = rule_b->aggregate(updates);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-3f);
}

TEST_P(AggregatorProperty, TranslationEquivariant) {
  // agg(x + c) == agg(x) + c for every rule built from distances/order
  // statistics/means.
  if (GetParam() == "clustering") {
    GTEST_SKIP() << "cosine similarity is anchored at the origin, not shift-equivariant";
  }
  util::Rng rng(2);
  const auto updates = gaussian_cloud(7, 8, 0.0, 1.0, rng);
  auto shifted = updates;
  for (auto& u : shifted) {
    for (float& v : u) v += 10.0f;
  }
  auto rule_a = agg::make_aggregator(GetParam());
  auto rule_b = agg::make_aggregator(GetParam());
  // Reference-based rules (centered_clip, norm_filter) are equivariant only
  // when the reference shifts with the data, as it does in the runner.
  rule_a->set_reference(updates.front());
  rule_b->set_reference(shifted.front());
  const auto base = rule_a->aggregate(updates);
  const auto moved = rule_b->aggregate(shifted);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(moved[i], base[i] + 10.0f, 2e-2f);
  }
}

TEST_P(AggregatorProperty, OutputInsideCoordinateHull) {
  // Every rule here outputs within the per-coordinate min/max of its inputs
  // (means, medians, trims, selections and clipped walks all do).
  util::Rng rng(3);
  const auto updates = gaussian_cloud(8, 10, 0.0, 1.0, rng);
  auto rule = agg::make_aggregator(GetParam());
  const auto out = rule->aggregate(updates);
  for (std::size_t i = 0; i < out.size(); ++i) {
    float lo = 1e30f, hi = -1e30f;
    for (const auto& u : updates) {
      lo = std::min(lo, u[i]);
      hi = std::max(hi, u[i]);
    }
    EXPECT_GE(out[i], lo - 1e-3f);
    EXPECT_LE(out[i], hi + 1e-3f);
  }
}

TEST_P(AggregatorProperty, SingleInputPassesThrough) {
  auto rule = agg::make_aggregator(GetParam());
  const std::vector<ModelVec> one = {{3.5f, -1.25f}};
  const auto out = rule->aggregate(one);
  EXPECT_NEAR(out[0], 3.5f, 1e-4f);
  EXPECT_NEAR(out[1], -1.25f, 1e-4f);
}

TEST_P(AggregatorProperty, RaggedInputRejected) {
  auto rule = agg::make_aggregator(GetParam());
  EXPECT_THROW(rule->aggregate({{1.0f, 2.0f}, {1.0f}}), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllRules, AggregatorProperty,
                         ::testing::ValuesIn(agg::aggregator_names()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Robust rules x model attacks: a 25% minority using any Table I model
// attack moves a robust aggregate by a bounded amount, while the mean is
// dragged arbitrarily far by the same sign-flip adversary at scale.

struct RobustCase {
  std::string rule;
  std::string attack;
};

class RobustnessProperty : public ::testing::TestWithParam<RobustCase> {};

TEST_P(RobustnessProperty, MinorityAttackersBounded) {
  const auto& param = GetParam();
  util::Rng rng(4);
  const std::size_t honest_n = 9, byz_n = 3, dim = 16;
  auto honest = gaussian_cloud(honest_n, dim, 1.0, 0.2, rng);
  auto attack = attacks::make_model_attack(param.attack);

  std::vector<ModelVec> all = honest;
  for (std::size_t k = 0; k < byz_n; ++k) {
    all.push_back(attack->craft(honest, honest[k], rng));
  }

  auto rule = agg::make_aggregator(param.rule, 0.25);
  const auto out = rule->aggregate(all);
  const auto honest_mean = tensor::mean_of(honest);
  const double displacement =
      std::sqrt(tensor::distance_squared(out, honest_mean));
  // The honest cloud has radius ~0.2*sqrt(16) = 0.8; a robust rule must stay
  // within a few cloud radii of the honest mean under a 25% minority.
  EXPECT_LT(displacement, 3.0) << param.rule << " vs " << param.attack;
}

std::vector<RobustCase> robust_grid() {
  std::vector<RobustCase> cases;
  for (const char* rule : {"krum", "multikrum", "median", "trimmed_mean", "geomed"}) {
    for (const auto& attack : attacks::model_attack_names()) {
      cases.push_back({rule, attack});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RulesXAttacks, RobustnessProperty,
                         ::testing::ValuesIn(robust_grid()),
                         [](const auto& info) {
                           return info.param.rule + "_vs_" + info.param.attack;
                         });

// ---------------------------------------------------------------------------
// Theorem 2 sweep: formula vs counted p-ratio trees over the (γ, m, L) grid.

struct ToleranceCase {
  std::size_t levels;
  std::size_t m;
  double gamma;
};

class ToleranceProperty : public ::testing::TestWithParam<ToleranceCase> {};

TEST_P(ToleranceProperty, FormulaMatchesCountedTree) {
  const auto& param = GetParam();
  util::Rng rng(5);
  const std::size_t top = 4;
  const auto tree = topology::build_ecsm(param.levels, param.m, top);

  topology::PRatioConfig config;
  config.p = 1.0 - param.gamma;
  const auto honest_top = static_cast<std::size_t>(
      std::llround((1.0 - param.gamma) * static_cast<double>(top)));
  config.honest_top = honest_top;
  const auto mask = topology::assign_p_ratio(tree, config, rng);
  const auto byz = topology::byzantine_per_level(tree, mask);

  for (std::size_t l = 0; l < tree.num_levels(); ++l) {
    const double expected =
        topology::theorem2_max_byzantine(top, param.m, l, param.gamma, param.gamma);
    // assign_p_ratio rounds p*m to an integer child count per cluster; exact
    // when gamma*m is integral, which this grid guarantees.
    EXPECT_NEAR(static_cast<double>(byz[l]), expected, 1e-9)
        << "level " << l << " of " << param.levels << "-level m=" << param.m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ToleranceProperty,
    ::testing::Values(ToleranceCase{2, 4, 0.25}, ToleranceCase{3, 4, 0.25},
                      ToleranceCase{4, 4, 0.25}, ToleranceCase{3, 4, 0.5},
                      ToleranceCase{3, 2, 0.5}, ToleranceCase{4, 2, 0.5}),
    [](const auto& info) {
      return "L" + std::to_string(info.param.levels) + "_m" +
             std::to_string(info.param.m) + "_g" +
             std::to_string(static_cast<int>(info.param.gamma * 100));
    });

// ---------------------------------------------------------------------------
// Consensus protocols: shared contract across the whole family.

class ConsensusProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(ConsensusProperty, HonestUnanimityKeepsGoodModel) {
  util::Rng rng(6);
  auto protocol = consensus::make_consensus(GetParam());
  std::vector<ModelVec> candidates(4, ModelVec{1.0f});
  candidates[0] = ModelVec{0.0f};  // one bad
  auto eval = [](std::size_t, const ModelVec& m) { return static_cast<double>(m[0]); };
  const auto result =
      protocol->agree(candidates, eval, std::vector<bool>(4, false), rng);
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.model[0], 0.9f);
}

TEST_P(ConsensusProperty, AccountsTraffic) {
  util::Rng rng(7);
  auto protocol = consensus::make_consensus(GetParam());
  const std::vector<ModelVec> candidates(4, ModelVec{1.0f});
  auto eval = [](std::size_t, const ModelVec&) { return 1.0; };
  const auto result =
      protocol->agree(candidates, eval, std::vector<bool>(4, false), rng);
  EXPECT_GT(result.messages, 0u);
  EXPECT_GT(result.model_bytes, 0u);
}

TEST_P(ConsensusProperty, SizeMismatchRejected) {
  util::Rng rng(8);
  auto protocol = consensus::make_consensus(GetParam());
  const std::vector<ModelVec> candidates(4, ModelVec{1.0f});
  auto eval = [](std::size_t, const ModelVec&) { return 1.0; };
  EXPECT_THROW(protocol->agree(candidates, eval, std::vector<bool>(2, false), rng),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ConsensusProperty,
                         ::testing::ValuesIn(consensus::consensus_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace abdhfl
