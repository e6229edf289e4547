// Kernel-layer tests: vectorized reductions vs the sequential-double
// references (float-ULP-scale tolerance, adversarial inputs included),
// elementwise kernels bitwise against their references, the packed GEMM
// bitwise against the naive triple loop, every aggregation rule bitwise
// identical across thread counts 1 / 2 / 8, and the sorting network behind
// median / trimmed mean against the per-column sort it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "agg/aggregator.hpp"
#include "agg/krum.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace abdhfl;
namespace kern = tensor::kern;

// Give the process-wide pool real workers even on single-core CI hosts, so
// the cross-thread determinism tests below exercise genuine multi-worker
// schedules.  Static initialization runs before main, hence before the
// pool's first use.
const bool kForcePoolWorkers = [] {
  setenv("ABDHFL_POOL_THREADS", "8", 0);
  return true;
}();

const std::vector<std::size_t> kSizes = {1,    2,    3,    15,   16,  17,
                                         100,  1000, 4095, 4096, 4097, 10000};

std::vector<float> random_vec(std::size_t n, std::uint64_t seed, double scale = 1.0) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(scale * rng.normal());
  return v;
}

/// Tolerance scaled to the magnitude sum of the products — the float-lane
/// accumulation error bound — plus a tiny absolute floor for all-zero and
/// denormal inputs.
double tol_for(const std::vector<float>& a, const std::vector<float>& b) {
  double mag = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    mag += std::abs(static_cast<double>(a[i])) * std::abs(static_cast<double>(b[i]));
  }
  return 1e-5 * mag + 1e-30;
}

void expect_reductions_close(const std::vector<float>& a, const std::vector<float>& b) {
  const std::size_t n = a.size();
  const double tol = tol_for(a, b);
  EXPECT_NEAR(kern::dot(a.data(), b.data(), n), kern::dot_ref(a.data(), b.data(), n),
              tol);
  EXPECT_NEAR(kern::norm2_squared(a.data(), n), kern::norm2_squared_ref(a.data(), n),
              tol);
  EXPECT_NEAR(kern::distance_squared(a.data(), b.data(), n),
              kern::distance_squared_ref(a.data(), b.data(), n), 4.0 * tol);
}

TEST(Kernels, ReductionsMatchReferenceOnRandomData) {
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    expect_reductions_close(random_vec(n, 100 + n), random_vec(n, 200 + n));
  }
}

TEST(Kernels, ReductionsMatchReferenceOnAdversarialData) {
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    // Denormals: products underflow the float lanes but not the double refs;
    // the difference must stay under the (tiny) magnitude-scaled tolerance.
    std::vector<float> denorm(n, 1e-40f);
    expect_reductions_close(denorm, denorm);

    // Signed zeros.
    std::vector<float> zeros(n);
    for (std::size_t i = 0; i < n; ++i) zeros[i] = (i % 2 == 0) ? 0.0f : -0.0f;
    expect_reductions_close(zeros, zeros);

    // Alternating-sign cancellation at large magnitude.
    std::vector<float> ones(n, 1e3f), alt(n);
    for (std::size_t i = 0; i < n; ++i) alt[i] = (i % 2 == 0) ? 1e3f : -1e3f;
    expect_reductions_close(ones, alt);
  }
}

TEST(Kernels, ReductionsAreRunToRunDeterministic) {
  const auto a = random_vec(10000, 7), b = random_vec(10000, 8);
  const double first = kern::dot(a.data(), b.data(), a.size());
  for (int rep = 0; rep < 5; ++rep) {
    const double again = kern::dot(a.data(), b.data(), a.size());
    EXPECT_EQ(std::memcmp(&first, &again, sizeof(double)), 0);
  }
}

TEST(Kernels, TiledDistanceEqualsMonolithic) {
  // Krum accumulates distance_squared one kFlushBlock tile at a time; the
  // tiled sum must be bitwise what the monolithic call produces.
  const std::size_t n = 3 * kern::kFlushBlock + 123;
  const auto a = random_vec(n, 31), b = random_vec(n, 32);
  const double whole = kern::distance_squared(a.data(), b.data(), n);
  double tiled = 0.0;
  for (std::size_t t = 0; t < n; t += kern::kFlushBlock) {
    const std::size_t len = std::min(kern::kFlushBlock, n - t);
    tiled += kern::distance_squared(a.data() + t, b.data() + t, len);
  }
  EXPECT_EQ(std::memcmp(&whole, &tiled, sizeof(double)), 0);
}

TEST(Kernels, AxpyBitwiseMatchesReference) {
  for (std::size_t n : kSizes) {
    SCOPED_TRACE(n);
    const auto x = random_vec(n, 300 + n);
    auto y1 = random_vec(n, 400 + n);
    auto y2 = y1;
    kern::axpy(0.37, x.data(), y1.data(), n);
    kern::axpy_ref(0.37, x.data(), y2.data(), n);
    EXPECT_EQ(std::memcmp(y1.data(), y2.data(), n * sizeof(float)), 0);
  }
}

TEST(Kernels, ElementwiseKernelsMatchScalarFormulas) {
  const std::size_t n = 4097;
  const auto a = random_vec(n, 51), b = random_vec(n, 52);
  const double alpha = 0.3, beta = -1.7;

  std::vector<float> out(n);
  kern::lerp(a.data(), b.data(), alpha, beta, out.data(), n);
  std::vector<float> axpby_out(b);
  kern::axpby(alpha, a.data(), beta, axpby_out.data(), n);
  std::vector<float> scaled(a);
  kern::scale(scaled.data(), alpha, n);
  std::vector<float> added(n), subbed(n);
  kern::add(a.data(), b.data(), added.data(), n);
  kern::sub(a.data(), b.data(), subbed.data(), n);
  std::vector<double> acc(n, 0.25);
  kern::accumulate_scaled(beta, a.data(), acc.data(), n);

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], static_cast<float>(alpha * a[i] + beta * b[i]));
    EXPECT_EQ(axpby_out[i], static_cast<float>(alpha * a[i] + beta * b[i]));
    EXPECT_EQ(scaled[i], static_cast<float>(a[i] * alpha));
    EXPECT_EQ(added[i], a[i] + b[i]);
    EXPECT_EQ(subbed[i], a[i] - b[i]);
    EXPECT_EQ(acc[i], 0.25 + beta * a[i]);
  }
}

TEST(Kernels, PackedGemmBitwiseMatchesNaive) {
  util::Rng rng(77);
  const std::size_t shapes[][3] = {{3, 5, 7}, {1, 1, 1}, {16, 128, 4},
                                   {70, 33, 65}, {64, 256, 48}, {129, 200, 77}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(::testing::Message() << s[0] << "x" << s[1] << "x" << s[2]);
    tensor::Matrix a(s[0], s[1]), b(s[1], s[2]), c1, c2;
    a.init_he_uniform(rng);
    b.init_he_uniform(rng);
    tensor::gemm(a, b, c1);
    tensor::gemm_naive(a, b, c2);
    ASSERT_EQ(c1.size(), c2.size());
    EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)), 0);
  }
}

std::vector<agg::ModelVec> make_updates(std::size_t n, std::size_t dim,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<agg::ModelVec> updates(n, agg::ModelVec(dim));
  for (auto& u : updates) {
    for (float& v : u) v = static_cast<float>(rng.normal());
  }
  return updates;
}

class RuleDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(RuleDeterminism, ParallelBitwiseEqualsSerial) {
  const std::string rule = GetParam();
  // Large enough that every parallel partition (rows, coordinates, updates)
  // actually splits; odd sizes hit the chunk-remainder paths.
  const auto updates = make_updates(13, 3 * kern::kFlushBlock + 131, 2024);
  const auto serial = agg::make_aggregator(rule, 0.25, 1)->aggregate(updates);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const auto parallel =
        agg::make_aggregator(rule, 0.25, threads)->aggregate(updates);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(float)), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRules, RuleDeterminism,
                         ::testing::Values("krum", "multikrum", "median",
                                           "trimmed_mean", "geomed", "autogm",
                                           "centered_clip", "norm_filter",
                                           "mean"),
                         [](const auto& info) { return info.param; });

TEST(Kernels, KrumScoresBitwiseAcrossThreadCounts) {
  const auto updates = make_updates(9, kern::kFlushBlock + 77, 5);
  const auto s1 = agg::KrumAggregator::scores(updates, 2, 1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto st = agg::KrumAggregator::scores(updates, 2, threads);
    ASSERT_EQ(s1.size(), st.size());
    EXPECT_EQ(std::memcmp(s1.data(), st.data(), s1.size() * sizeof(double)), 0);
  }
}

// ---- sorting-network order statistics vs the per-column sort -------------
//
// The oracle is the per-column code the network replaced: gather a column,
// std::sort it and add the kept values into a double in ascending order for
// the trimmed mean; std::nth_element + std::max_element for the median.

float oracle_median(std::vector<float> col) {
  const std::size_t n = col.size();
  const std::size_t mid = n / 2;
  std::nth_element(col.begin(), col.begin() + mid, col.end());
  if (n % 2 == 1) return col[mid];
  const float hi = col[mid];
  const float lo = *std::max_element(col.begin(), col.begin() + mid);
  return 0.5f * (lo + hi);
}

float oracle_trimmed_mean(std::vector<float> col, double beta) {
  const std::size_t n = col.size();
  auto trim = static_cast<std::size_t>(std::floor(beta * static_cast<double>(n)));
  if (2 * trim >= n) trim = (n - 1) / 2;
  const std::size_t keep = n - 2 * trim;
  std::sort(col.begin(), col.end());
  double acc = 0.0;
  for (std::size_t k = trim; k < trim + keep; ++k) acc += col[k];
  return static_cast<float>(acc / static_cast<double>(keep));
}

std::vector<float> column(const std::vector<agg::ModelVec>& updates, std::size_t c) {
  std::vector<float> col;
  for (const auto& u : updates) col.push_back(u[c]);
  return col;
}

bool has_nan(const std::vector<float>& col) {
  return std::any_of(col.begin(), col.end(), [](float v) { return std::isnan(v); });
}

bool mixes_signed_zeros(const std::vector<float>& col) {
  bool pos = false, neg = false;
  for (float v : col) {
    if (v == 0.0f) (std::signbit(v) ? neg : pos) = true;
  }
  return pos && neg;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

enum class Data { kNormal, kDuplicates, kInfinities, kHuge, kSubnormals, kSignedZeros, kNan };

float draw(Data data, util::Rng& rng) {
  static constexpr float kInf = std::numeric_limits<float>::infinity();
  switch (data) {
    case Data::kNormal:
      return static_cast<float>(rng.normal());
    case Data::kDuplicates: {
      static constexpr float kSet[] = {-1.5f, 0.25f, 3.0f};
      return kSet[rng.below(3)];
    }
    case Data::kInfinities:
      return rng.bernoulli(0.3) ? (rng.bernoulli(0.5) ? kInf : -kInf)
                                : static_cast<float>(rng.normal());
    case Data::kHuge:
      return rng.bernoulli(0.5) ? (rng.bernoulli(0.5) ? 1e38f : -1e38f)
                                : static_cast<float>(rng.normal());
    case Data::kSubnormals:
      return static_cast<float>(rng.normal() * 1e-40);
    case Data::kSignedZeros:
      return rng.bernoulli(0.7) ? (rng.bernoulli(0.5) ? 0.0f : -0.0f)
                                : static_cast<float>(rng.normal());
    case Data::kNan:
      return rng.bernoulli(0.1) ? std::numeric_limits<float>::quiet_NaN()
                                : static_cast<float>(rng.normal());
  }
  return 0.0f;
}

std::vector<agg::ModelVec> draw_updates(Data data, std::size_t n, std::size_t dim,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<agg::ModelVec> updates(n, agg::ModelVec(dim));
  for (auto& u : updates) {
    for (float& v : u) v = draw(data, rng);
  }
  return updates;
}

const std::vector<std::size_t> kNetworkSizes = [] {
  std::vector<std::size_t> ns;
  for (std::size_t n = 1; n <= 33; ++n) ns.push_back(n);
  for (std::size_t n : {64, 100, 256}) ns.push_back(n);
  return ns;
}();

const std::vector<std::size_t> kTileDims = {1, 3, kern::kSortTile - 1, kern::kSortTile + 1,
                                            3 * kern::kSortTile + 5};

/// Every (n, d, rule, threads) of the sweep against the oracle, under the
/// agg/median.hpp contract: bitwise, except == where +0 and -0 meet; NaN
/// columns have no oracle and must only repeat bitwise across calls and
/// thread counts.
void sweep_against_oracle(Data data) {
  std::uint64_t seed = 1;
  for (std::size_t n : kNetworkSizes) {
    for (std::size_t dim : kTileDims) {
      const auto updates = draw_updates(data, n, dim, seed++);
      for (double beta : {-1.0, 0.1, 0.25, 0.45}) {  // -1: the median
        SCOPED_TRACE(::testing::Message() << "n=" << n << " d=" << dim << " beta=" << beta);
        const bool median = beta < 0.0;
        auto rule = [&](std::size_t threads) {
          return agg::make_aggregator(median ? "median" : "trimmed_mean",
                                      median ? 0.25 : beta, threads);
        };
        const auto first = rule(1)->aggregate(updates);
        ASSERT_EQ(first.size(), dim);
        for (std::size_t threads : {1, 2, 8}) {
          SCOPED_TRACE(threads);
          const auto out = rule(threads)->aggregate(updates);
          ASSERT_EQ(std::memcmp(out.data(), first.data(), dim * sizeof(float)), 0);
        }
        for (std::size_t c = 0; c < dim; ++c) {
          const auto col = column(updates, c);
          if (has_nan(col)) continue;
          const float want = median ? oracle_median(col) : oracle_trimmed_mean(col, beta);
          if (mixes_signed_zeros(col)) {
            ASSERT_EQ(first[c], want) << "column " << c;
          } else {
            ASSERT_TRUE(same_bits(first[c], want))
                << "column " << c << ": " << first[c] << " vs oracle " << want;
          }
        }
      }
    }
  }
}

TEST(SortingNetwork, ZeroOnePrincipleUpTo16) {
  // A comparator network sorts every input iff it sorts every 0/1 input.
  // The tile sorts kSortTile inputs at once: column c of batch b is the bit
  // pattern b * kSortTile + c.
  for (std::size_t n = 1; n <= 16; ++n) {
    SCOPED_TRACE(n);
    const auto net = kern::sorting_network(n);
    for (const auto& cmp : net) ASSERT_LT(cmp.lo, cmp.hi);
    std::vector<float> tile(n * kern::kSortTile);
    const std::size_t patterns = std::size_t{1} << n;
    for (std::size_t b = 0; b * kern::kSortTile < patterns; ++b) {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < kern::kSortTile; ++c) {
          const std::size_t bits = (b * kern::kSortTile + c) % patterns;
          tile[r * kern::kSortTile + c] = static_cast<float>((bits >> r) & 1);
        }
      }
      kern::sort_tile_columns(tile.data(), net.data(), net.size());
      for (std::size_t r = 1; r < n; ++r) {
        for (std::size_t c = 0; c < kern::kSortTile; ++c) {
          ASSERT_LE(tile[(r - 1) * kern::kSortTile + c], tile[r * kern::kSortTile + c])
              << "pattern " << (b * kern::kSortTile + c) % patterns;
        }
      }
    }
  }
}

TEST(SortingNetwork, NormalValuesMatchOracle) { sweep_against_oracle(Data::kNormal); }
TEST(SortingNetwork, HeavyDuplicatesMatchOracle) { sweep_against_oracle(Data::kDuplicates); }
TEST(SortingNetwork, InfinitiesMatchOracle) { sweep_against_oracle(Data::kInfinities); }
TEST(SortingNetwork, HugeValuesMatchOracle) { sweep_against_oracle(Data::kHuge); }
TEST(SortingNetwork, SubnormalsMatchOracle) { sweep_against_oracle(Data::kSubnormals); }
TEST(SortingNetwork, SignedZerosCompareEqualToOracle) {
  sweep_against_oracle(Data::kSignedZeros);
}
TEST(SortingNetwork, NanColumnsRepeatAcrossCallsAndThreads) {
  sweep_against_oracle(Data::kNan);
}

TEST(SortingNetwork, ColumnsStayPermutationsWithZerosAndNan) {
  // The conditional swap never duplicates or drops a value: after sorting,
  // each column holds exactly the bit patterns it started with.
  const std::size_t n = 23;
  const auto net = kern::sorting_network(n);
  util::Rng rng(4);
  std::vector<float> tile(n * kern::kSortTile);
  for (float& v : tile) {
    v = draw(rng.bernoulli(0.5) ? Data::kSignedZeros : Data::kNan, rng);
  }
  const auto before = tile;
  kern::sort_tile_columns(tile.data(), net.data(), net.size());
  auto bits = [&](const std::vector<float>& t, std::size_t c) {
    std::vector<std::uint32_t> out(n);
    for (std::size_t r = 0; r < n; ++r) std::memcpy(&out[r], &t[r * kern::kSortTile + c], 4);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (std::size_t c = 0; c < kern::kSortTile; ++c) EXPECT_EQ(bits(tile, c), bits(before, c));
}

}  // namespace
