#pragma once
// Uniform linear quantization of model updates — the standard FL bandwidth
// optimization (Konecny et al., "strategies for improving communication
// efficiency", reference [3] of the paper).  A float parameter vector is
// mapped to `bits`-wide integers per fixed-size block with a per-block
// (scale, min) pair, cutting the wire size ~4x at 8 bits.  Exposed so the
// communication-cost accounting of the scheme experiments can be re-run
// under compression (see bench_micro's quantization entries for the
// error/size trade-off).
//
// Layout: codes are packed LSB-first into one continuous byte stream (value
// i occupies bits [i*bits, (i+1)*bits) of the stream, crossing block
// boundaries without padding).  The block table is one (scale, min) float
// pair per block in native byte order — exactly the wire's layout, so the
// span kernels below encode into and decode out of a frame in place.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace abdhfl::nn {

struct QuantizedVec {
  std::uint8_t bits = 8;           // 1..8 bits per value
  std::uint32_t block = 256;       // values per (scale,min) block
  std::uint64_t count = 0;         // original element count
  std::vector<float> scales;       // per block
  std::vector<float> mins;         // per block
  std::vector<std::uint8_t> data;  // packed values

  /// Bytes this representation occupies on the wire.
  [[nodiscard]] std::size_t wire_size() const noexcept;
};

/// Bytes of one block-table entry: a (scale, min) float pair.
inline constexpr std::size_t kBlockEntryBytes = 2 * sizeof(float);

/// Blocks covering `count` values (0 when `block` is 0).
[[nodiscard]] std::size_t block_count(std::size_t count, std::uint32_t block) noexcept;

/// Packed code bytes for `count` values of `bits` each.
[[nodiscard]] std::size_t code_bytes(std::size_t count, std::uint8_t bits) noexcept;

/// Span kernel: quantize `values` into a block table of
/// block_count() * kBlockEntryBytes bytes and code_bytes() packed codes.
/// Throws std::invalid_argument on bad bits/block or undersized spans.
void quantize_into(std::span<const float> values, std::uint8_t bits, std::uint32_t block,
                   std::span<std::uint8_t> table, std::span<std::uint8_t> codes);

/// Span kernel: reconstruct out.size() values from a block table and packed
/// codes laid out as quantize_into writes them.  Every bound is checked
/// before the first write; throws std::invalid_argument.
void dequantize_into(std::span<const std::uint8_t> table,
                     std::span<const std::uint8_t> codes, std::uint8_t bits,
                     std::uint32_t block, std::span<float> out);

/// Quantize to `bits` bits per value (1..8), blockwise min/max scaling.
[[nodiscard]] QuantizedVec quantize(std::span<const float> values, std::uint8_t bits = 8,
                                    std::uint32_t block = 256);

/// Reconstruct (lossy) floats.
[[nodiscard]] std::vector<float> dequantize(const QuantizedVec& q);

/// Worst-case absolute reconstruction error for a block of the given range:
/// half a quantization step.
[[nodiscard]] double max_error_bound(double value_range, std::uint8_t bits) noexcept;

}  // namespace abdhfl::nn
