#include "agg/median.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/thread_pool.hpp"

namespace abdhfl::agg {

namespace {

/// Sort every coordinate's n values and hand each sorted tile to
/// `read(tile, width, out + base)`.  Row k of a tile is input k's contiguous
/// segment [base, base + kSortTile), copied with one memcpy, and the network
/// sorts all columns of the tile at once (kern::sort_tile_columns).  Threads
/// partition whole tiles and every output element depends only on its own
/// column, so parallel output is bitwise-identical to serial.
template <class ReadFn>
void sort_tiles(const std::vector<ModelVec>& updates, std::size_t dim,
                std::size_t threads, ModelVec& out, ReadFn read) {
  using tensor::kern::kSortTile;
  const std::size_t n = updates.size();
  const auto net = tensor::kern::sorting_network(n);
  util::global_pool().parallel_ranges(
      0, (dim + kSortTile - 1) / kSortTile,
      [&](std::size_t lo, std::size_t hi) {
        // Value-initialized, so the columns past a partial tile's width hold
        // defined (if meaningless) floats when the network sorts them.
        std::vector<float> tile(n * kSortTile);
        for (std::size_t t = lo; t < hi; ++t) {
          const std::size_t base = t * kSortTile;
          const std::size_t width = std::min(kSortTile, dim - base);
          for (std::size_t k = 0; k < n; ++k) {
            std::memcpy(tile.data() + k * kSortTile, updates[k].data() + base,
                        width * sizeof(float));
          }
          tensor::kern::sort_tile_columns(tile.data(), net.data(), net.size());
          read(tile.data(), width, out.data() + base);
        }
      },
      threads);
}

/// Per-input Euclidean distances to the aggregate output — the forensics
/// score for rules whose column-wise math discards input identity.  One
/// kernel call chain per input, parallel over inputs: bitwise-deterministic
/// for any thread count.
std::vector<double> distances_to(const std::vector<ModelVec>& updates,
                                 const ModelVec& out, std::size_t dim,
                                 std::size_t threads) {
  std::vector<double> dist(updates.size());
  util::global_pool().parallel_for(
      0, updates.size(),
      [&](std::size_t k) {
        dist[k] =
            std::sqrt(tensor::kern::distance_squared(updates[k].data(), out.data(), dim));
      },
      threads);
  return dist;
}

}  // namespace

ModelVec MedianAggregator::aggregate(const std::vector<ModelVec>& updates) {
  const std::size_t dim = tensor::checked_common_size(updates);
  const std::size_t n = updates.size();
  ModelVec out(dim);
  telemetry_ = {n, n, 0.0, 0.0, {}};
  const std::size_t mid = n / 2;
  sort_tiles(updates, dim, threads(), out,
             [n, mid](const float* tile, std::size_t width, float* dst) {
               const float* hi = tile + mid * tensor::kern::kSortTile;
               if (n % 2 == 1) {
                 std::memcpy(dst, hi, width * sizeof(float));
                 return;
               }
               const float* lo = hi - tensor::kern::kSortTile;
               for (std::size_t c = 0; c < width; ++c) dst[c] = 0.5f * (lo[c] + hi[c]);
             });
  if (forensics()) {
    const auto dist = distances_to(updates, out, dim, threads());
    telemetry_.verdicts.resize(n);
    const double w = 1.0 / static_cast<double>(n);
    for (std::size_t k = 0; k < n; ++k) telemetry_.verdicts[k] = {true, w, dist[k]};
  }
  return out;
}

TrimmedMeanAggregator::TrimmedMeanAggregator(double beta) : beta_(beta) {
  if (beta < 0.0 || beta >= 0.5) {
    throw std::invalid_argument("TrimmedMeanAggregator: beta out of [0, 0.5)");
  }
}

ModelVec TrimmedMeanAggregator::aggregate(const std::vector<ModelVec>& updates) {
  const std::size_t dim = tensor::checked_common_size(updates);
  const std::size_t n = updates.size();
  auto trim = static_cast<std::size_t>(std::floor(beta_ * static_cast<double>(n)));
  if (2 * trim >= n) trim = (n - 1) / 2;  // always keep at least one value
  const std::size_t keep = n - 2 * trim;
  telemetry_ = {n, keep, 0.0, 0.0, {}};

  ModelVec out(dim);
  sort_tiles(updates, dim, threads(), out,
             [trim, keep](const float* tile, std::size_t width, float* dst) {
               tensor::kern::mean_tile_rows(tile, trim, keep, width, dst);
             });
  if (forensics()) {
    // Coordinate-wise trimming has no per-input keep set; attribute by
    // distance to the output — the `keep` closest inputs count as kept
    // (stable index tie-break), matching telemetry_.kept.
    const auto dist = distances_to(updates, out, dim, threads());
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return dist[a] < dist[b]; });
    telemetry_.verdicts.resize(n);
    for (std::size_t k = 0; k < n; ++k) telemetry_.verdicts[k] = {false, 0.0, dist[k]};
    const double w = 1.0 / static_cast<double>(keep);
    for (std::size_t r = 0; r < keep; ++r) {
      telemetry_.verdicts[order[r]].kept = true;
      telemetry_.verdicts[order[r]].weight = w;
    }
  }
  return out;
}

}  // namespace abdhfl::agg
