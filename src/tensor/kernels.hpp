#pragma once
// Cache- and SIMD-friendly numeric kernels underneath the tensor ops and the
// Byzantine-robust aggregation rules.  Everything here is written against GCC
// /Clang vector extensions, which lower to SSE2 at the default -O2 baseline
// and to AVX/AVX2 when the build enables ABDHFL_NATIVE (-march=native); a
// plain scalar fallback covers other compilers.
//
// Determinism contract
// --------------------
// Every kernel is a pure function of its operands with a *fixed* reduction
// tree: lane accumulators are flushed into the running double total once per
// kFlushBlock elements, always in the same lane order.  Results are therefore
// bitwise-reproducible run-to-run and independent of how callers partition
// work across threads — as long as each output element is produced by exactly
// one kernel call per flush block.  Parallel aggregation code exploits this:
// partitioning by row / coordinate / update never changes the arithmetic of
// any single element.
//
// Precision note: the reduction kernels (dot / norm2_squared /
// distance_squared) accumulate in float lanes within a flush block and in
// double across blocks.  Relative error on random data is ~1e-6 (float-ULP
// scale of the inputs) versus the sequential-double references, which remain
// available as *_ref for tests and before/after benchmarks.  Kernels that the
// aggregation rules need elementwise-exact (axpy, accumulate, lerp) keep the
// references' per-element double arithmetic and are bitwise-identical to
// them.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace abdhfl::tensor::kern {

/// Elements accumulated in float lanes before flushing to the double total.
/// Also the d-tile the aggregation layer uses when it interleaves pairwise
/// distance accumulation (Krum): a tile equal to one flush block keeps the
/// tiled partial sums bitwise-identical to one monolithic kernel call.
inline constexpr std::size_t kFlushBlock = 4096;

// ---- reductions (vectorized, block-flushed) -------------------------------

[[nodiscard]] double dot(const float* a, const float* b, std::size_t n) noexcept;
[[nodiscard]] double norm2_squared(const float* a, std::size_t n) noexcept;
[[nodiscard]] double distance_squared(const float* a, const float* b,
                                      std::size_t n) noexcept;

/// Squared distance between a double-precision point and a float vector
/// (Weiszfeld iterate vs. update); double lanes throughout.
[[nodiscard]] double distance_squared_df(const double* a, const float* b,
                                         std::size_t n) noexcept;

// ---- scalar references (sequential double accumulation, the seed paths) ---

[[nodiscard]] double dot_ref(const float* a, const float* b, std::size_t n) noexcept;
[[nodiscard]] double norm2_squared_ref(const float* a, std::size_t n) noexcept;
[[nodiscard]] double distance_squared_ref(const float* a, const float* b,
                                          std::size_t n) noexcept;

// ---- elementwise kernels (exact per-element double arithmetic) ------------

/// y[i] = float(y[i] + alpha * x[i]).
void axpy(double alpha, const float* x, float* y, std::size_t n) noexcept;
void axpy_ref(double alpha, const float* x, float* y, std::size_t n) noexcept;

/// Fused scale-add: y[i] = float(alpha * x[i] + beta * y[i]).
void axpby(double alpha, const float* x, double beta, float* y,
           std::size_t n) noexcept;

/// x[i] = float(x[i] * alpha).
void scale(float* x, double alpha, std::size_t n) noexcept;

/// out[i] = a[i] + b[i] (float arithmetic).
void add(const float* a, const float* b, float* out, std::size_t n) noexcept;

/// out[i] = a[i] - b[i] (float arithmetic).
void sub(const float* a, const float* b, float* out, std::size_t n) noexcept;

/// out[i] = float(alpha * a[i] + beta * b[i]).
void lerp(const float* a, const float* b, double alpha, double beta, float* out,
          std::size_t n) noexcept;

// ---- mixed-precision accumulators (deterministic reductions) --------------

/// acc[i] += x[i] (accumulated in double).
void accumulate(const float* x, double* acc, std::size_t n) noexcept;

/// acc[i] += w * x[i] (accumulated in double).
void accumulate_scaled(double w, const float* x, double* acc,
                       std::size_t n) noexcept;

/// acc[i] += s * (u[i] - v[i]) with the difference taken in float (the
/// clipped-delta accumulation of Centered Clipping).
void accumulate_clipped_diff(double s, const float* u, const float* v,
                             double* acc, std::size_t n) noexcept;

// ---- sorting network (coordinate-wise order statistics) ------------------

/// Coordinates per tile of the sorting-network kernels.  A tile is n rows of
/// kSortTile floats: row k holds input k's coordinates [base, base +
/// kSortTile), a contiguous segment, so filling it is one memcpy per input.
inline constexpr std::size_t kSortTile = 64;

/// One compare-exchange: afterwards row `lo` holds the smaller and row `hi`
/// the larger value of every column (lo < hi).
struct Comparator {
  std::uint32_t lo, hi;
};

/// Batcher's odd-even merge-sort network for n inputs (any n), in execution
/// order.  Non-powers of two are the next power's network with every
/// comparator that touches a row >= n dropped.
[[nodiscard]] std::vector<Comparator> sorting_network(std::size_t n);

/// Sort every column of a tile (row stride kSortTile, all kSortTile columns)
/// ascending by applying `net`.  Each compare-exchange is a conditional swap
/// -- rows exchange a column's values only where hi < lo -- so every column
/// stays a permutation of its inputs, also with +-0 and NaN (a comparison
/// with NaN is false, so NaN never moves through a comparator).
void sort_tile_columns(float* tile, const Comparator* net,
                       std::size_t count) noexcept;

/// out[c] = float(sum / rows) for c < width, where sum adds the tile rows
/// [row_lo, row_lo + rows) of column c into a double in ascending row order.
void mean_tile_rows(const float* tile, std::size_t row_lo, std::size_t rows,
                    std::size_t width, float* out) noexcept;

}  // namespace abdhfl::tensor::kern
