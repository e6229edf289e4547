// Tests for the model-update quantization utility.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace abdhfl::nn {
namespace {

std::vector<float> random_params(std::size_t n, util::Rng& rng) {
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.normal(0.0, 1.0));
  return out;
}

TEST(Quantize, RoundtripErrorWithinBound) {
  util::Rng rng(1);
  const auto params = random_params(2000, rng);
  for (std::uint8_t bits : {2, 4, 8}) {
    const auto q = quantize(params, bits, 256);
    const auto restored = dequantize(q);
    ASSERT_EQ(restored.size(), params.size());
    // Per block the error must respect the half-step bound for that block's
    // range; use the global range as a generous envelope.
    float mn = params[0], mx = params[0];
    for (float v : params) {
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    const double bound = max_error_bound(mx - mn, bits) + 1e-6;
    for (std::size_t i = 0; i < params.size(); ++i) {
      ASSERT_LE(std::abs(restored[i] - params[i]), bound)
          << "bits=" << int(bits) << " index " << i;
    }
  }
}

TEST(Quantize, EightBitsShrinksWireFourfold) {
  util::Rng rng(2);
  const auto params = random_params(10000, rng);
  const auto q = quantize(params, 8);
  const std::size_t raw = wire_size(params.size());
  EXPECT_LT(q.wire_size(), raw / 3);  // ~4x minus block headers
  const auto q4 = quantize(params, 4);
  EXPECT_LT(q4.wire_size(), q.wire_size());
}

TEST(Quantize, HigherBitsLowerError) {
  util::Rng rng(3);
  const auto params = random_params(4096, rng);
  double prev_err = 1e30;
  for (std::uint8_t bits : {1, 2, 4, 8}) {
    const auto restored = dequantize(quantize(params, bits));
    double err = 0.0;
    for (std::size_t i = 0; i < params.size(); ++i) {
      err += std::abs(restored[i] - params[i]);
    }
    err /= static_cast<double>(params.size());
    EXPECT_LT(err, prev_err) << "bits=" << int(bits);
    prev_err = err;
  }
}

TEST(Quantize, ConstantBlockIsExact) {
  const std::vector<float> constant(500, 3.25f);
  const auto restored = dequantize(quantize(constant, 4));
  for (float v : restored) EXPECT_FLOAT_EQ(v, 3.25f);
}

TEST(Quantize, ExtremesPreserved) {
  // Block min and max must be representable exactly.
  std::vector<float> values = {-2.0f, 0.1f, 0.5f, 7.0f};
  const auto restored = dequantize(quantize(values, 8, 256));
  EXPECT_FLOAT_EQ(restored.front(), -2.0f);
  EXPECT_FLOAT_EQ(restored.back(), 7.0f);
}

TEST(Quantize, PartialTailBlock) {
  util::Rng rng(4);
  const auto params = random_params(300, rng);  // 256 + 44 tail
  const auto q = quantize(params, 8, 256);
  EXPECT_EQ(q.scales.size(), 2u);
  EXPECT_EQ(dequantize(q).size(), 300u);
}

TEST(Quantize, Validation) {
  const std::vector<float> v = {1.0f};
  EXPECT_THROW(quantize(v, 0), std::invalid_argument);
  EXPECT_THROW(quantize(v, 9), std::invalid_argument);
  EXPECT_THROW(quantize(v, 8, 0), std::invalid_argument);
  QuantizedVec corrupt = quantize(v, 8);
  corrupt.data.clear();
  EXPECT_THROW(dequantize(corrupt), std::invalid_argument);
}

TEST(Quantize, DequantizeValidatesBlockTableUpFront) {
  util::Rng rng(5);
  const auto good = quantize(random_params(40, rng), 8, 16);  // 3 blocks

  QuantizedVec zero_block = good;  // used to divide by zero (SIGFPE)
  zero_block.block = 0;
  EXPECT_THROW((void)dequantize(zero_block), std::invalid_argument);

  QuantizedVec short_mins = good;  // used to read past mins
  short_mins.mins.pop_back();
  EXPECT_THROW((void)dequantize(short_mins), std::invalid_argument);

  QuantizedVec short_scales = good;
  short_scales.scales.pop_back();
  EXPECT_THROW((void)dequantize(short_scales), std::invalid_argument);

  QuantizedVec huge_count = good;  // bounded before the output is sized
  huge_count.count = std::uint64_t{1} << 62;
  EXPECT_THROW((void)dequantize(huge_count), std::invalid_argument);

  EXPECT_EQ(dequantize(good).size(), 40u);
}

TEST(Quantize, SpanKernelsRejectUndersizedSpans) {
  const std::vector<float> values(10, 1.5f);
  std::vector<std::uint8_t> table(block_count(values.size(), 4) * kBlockEntryBytes);
  std::vector<std::uint8_t> codes(code_bytes(values.size(), 3));
  std::vector<float> out(values.size());
  quantize_into(values, 3, 4, table, codes);
  dequantize_into(table, codes, 3, 4, out);
  EXPECT_EQ(out, values);

  const std::span<std::uint8_t> short_table(table.data(), table.size() - 1);
  const std::span<std::uint8_t> short_codes(codes.data(), codes.size() - 1);
  EXPECT_THROW(quantize_into(values, 3, 4, short_table, codes), std::invalid_argument);
  EXPECT_THROW(quantize_into(values, 3, 4, table, short_codes), std::invalid_argument);
  EXPECT_THROW(dequantize_into(short_table, codes, 3, 4, out), std::invalid_argument);
  EXPECT_THROW(dequantize_into(table, short_codes, 3, 4, out), std::invalid_argument);
  EXPECT_THROW(dequantize_into(table, codes, 3, 0, out), std::invalid_argument);
  EXPECT_THROW(dequantize_into(table, codes, 9, 4, out), std::invalid_argument);
}

// --- byte-identity oracle ---------------------------------------------------
// The bit-at-a-time codec the word-packed kernels replaced, kept as the
// reference: quantize must emit the same bytes and dequantize the same float
// bits for every input, including ties, NaN/Inf and raw bit patterns.

QuantizedVec reference_quantize(std::span<const float> values, std::uint8_t bits,
                                std::uint32_t block) {
  QuantizedVec q;
  q.bits = bits;
  q.block = block;
  q.count = values.size();
  const std::size_t n_blocks = (values.size() + block - 1) / block;
  q.scales.resize(n_blocks);
  q.mins.resize(n_blocks);

  const auto levels = static_cast<std::uint32_t>((1U << bits) - 1);
  const std::size_t total_bits = values.size() * bits;
  q.data.assign((total_bits + 7) / 8, 0);

  std::size_t bit_pos = 0;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min<std::size_t>(values.size(), lo + block);
    float mn = values[lo], mx = values[lo];
    for (std::size_t i = lo; i < hi; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
    q.mins[b] = mn;
    const float range = mx - mn;
    q.scales[b] = levels > 0 && range > 0.0f ? range / static_cast<float>(levels) : 0.0f;

    for (std::size_t i = lo; i < hi; ++i) {
      std::uint32_t code = 0;
      if (q.scales[b] > 0.0f) {
        code = static_cast<std::uint32_t>(std::lround((values[i] - mn) / q.scales[b]));
        code = std::min(code, levels);
      }
      for (std::uint8_t k = 0; k < bits; ++k, ++bit_pos) {
        if ((code >> k) & 1U) {
          q.data[bit_pos / 8] |= static_cast<std::uint8_t>(1U << (bit_pos % 8));
        }
      }
    }
  }
  return q;
}

std::vector<float> reference_dequantize(const QuantizedVec& q) {
  std::vector<float> out(q.count);
  std::size_t bit_pos = 0;
  for (std::size_t i = 0; i < q.count; ++i) {
    std::uint32_t code = 0;
    for (std::uint8_t k = 0; k < q.bits; ++k, ++bit_pos) {
      if ((q.data[bit_pos / 8] >> (bit_pos % 8)) & 1U) code |= 1U << k;
    }
    const std::size_t b = i / q.block;
    out[i] = q.mins[b] + q.scales[b] * static_cast<float>(code);
  }
  return out;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

float from_bits(std::uint32_t bits) { return std::bit_cast<float>(bits); }

// Input families; each takes the block size so it can shape per-block content.
std::vector<float> family_normal(std::size_t n, std::uint32_t, util::Rng& rng) {
  return random_params(n, rng);
}

std::vector<float> family_raw_bits(std::size_t n, std::uint32_t, util::Rng& rng) {
  std::vector<float> out(n);
  for (float& v : out) v = from_bits(static_cast<std::uint32_t>(rng()));
  return out;
}

std::vector<float> family_denormal(std::size_t n, std::uint32_t, util::Rng& rng) {
  std::vector<float> out(n);
  for (float& v : out) {
    const auto mantissa = static_cast<std::uint32_t>(rng.below(0x00800000u));
    const std::uint32_t sign = rng.below(2) == 0 ? 0u : 0x80000000u;
    v = rng.below(8) == 0 ? 0.0f : from_bits(sign | mantissa);
  }
  return out;
}

std::vector<float> family_specials(std::size_t n, std::uint32_t block, util::Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(), from_bits(0x7F800001u),
                            0.0f, -0.0f, std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max()};
  auto out = random_params(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    // Block heads are hit more often: the head seeds the block's min/max.
    const bool head = i % block == 0;
    if (rng.below(head ? 3 : 12) == 0) out[i] = specials[rng.below(std::size(specials))];
  }
  return out;
}

std::vector<float> family_constant(std::size_t n, std::uint32_t block, util::Rng& rng) {
  // Every other block constant (scale 0), the rest random.
  auto out = random_params(n, rng);
  for (std::size_t lo = 0; lo < n; lo += 2 * static_cast<std::size_t>(block)) {
    const float c = out[lo];
    for (std::size_t i = lo; i < std::min<std::size_t>(n, lo + block); ++i) out[i] = c;
  }
  return out;
}

template <std::uint8_t Bits>
std::vector<float> family_ties(std::size_t n, std::uint32_t block, util::Rng& rng) {
  // Each block spans [m, m + levels*s] with s a power of two, so scale is s
  // exactly and every other value sits on an exact k + 0.5 quotient.
  constexpr std::uint32_t levels = (1u << Bits) - 1;
  std::vector<float> out(n);
  for (std::size_t lo = 0; lo < n; lo += block) {
    const float s = std::ldexp(1.0f, static_cast<int>(rng.below(9)) - 4);
    const float m = static_cast<float>(static_cast<int>(rng.below(64)) - 32) * s;
    const std::size_t hi = std::min<std::size_t>(n, lo + block);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto k = static_cast<float>(rng.below(levels + 1));
      out[i] = i == lo       ? m
               : i == lo + 1 ? m + static_cast<float>(levels) * s
               : i % 2 == 0  ? m + (std::min(k, static_cast<float>(levels - 1)) + 0.5f) * s
                             : m + k * s;
    }
  }
  return out;
}

void expect_byte_identical(const std::vector<float>& values, std::uint8_t bits,
                           std::uint32_t block, const std::string& label) {
  const QuantizedVec want = reference_quantize(values, bits, block);
  const QuantizedVec got = quantize(values, bits, block);
  ASSERT_EQ(got.count, want.count) << label;
  ASSERT_EQ(got.data, want.data) << label;
  ASSERT_TRUE(same_bits(got.scales, want.scales)) << label;
  ASSERT_TRUE(same_bits(got.mins, want.mins)) << label;
  ASSERT_TRUE(same_bits(dequantize(got), reference_dequantize(want))) << label;
}

template <std::uint8_t Bits>
void check_width(util::Rng& rng) {
  using Family = std::vector<float> (*)(std::size_t, std::uint32_t, util::Rng&);
  const std::pair<const char*, Family> families[] = {
      {"normal", family_normal},     {"raw_bits", family_raw_bits},
      {"denormal", family_denormal}, {"specials", family_specials},
      {"constant", family_constant}, {"ties", family_ties<Bits>},
  };
  for (const std::uint32_t block : {1u, 7u, 256u, 1000u}) {
    // Whole blocks only, one value past a block, and a ragged tail.
    for (const std::size_t n : {std::size_t{block} * 3, std::size_t{block} * 2 + 1,
                                std::size_t{block} * 2 + block / 2 + 3}) {
      for (const auto& [name, family] : families) {
        expect_byte_identical(family(n, block, rng), Bits, block,
                              std::string(name) + " bits=" + std::to_string(Bits) +
                                  " block=" + std::to_string(block) +
                                  " n=" + std::to_string(n));
      }
    }
  }
}

TEST(QuantizeOracle, ByteIdenticalToBitAtATimeReference) {
  util::Rng rng(2024);
  check_width<1>(rng);
  check_width<2>(rng);
  check_width<3>(rng);
  check_width<4>(rng);
  check_width<5>(rng);
  check_width<6>(rng);
  check_width<7>(rng);
  check_width<8>(rng);
}

TEST(QuantizeOracle, ExactHalfTiesRoundAwayFromZero) {
  // scale = 1 exactly: quotient k + 0.5 must land on k + 1, as lround does.
  std::vector<float> values = {0.0f, 255.0f};
  for (int k = 0; k < 255; ++k) values.push_back(static_cast<float>(k) + 0.5f);
  const auto q = quantize(values, 8, 1024);
  for (int k = 0; k < 255; ++k) EXPECT_EQ(q.data[2 + k], k + 1) << k;
  expect_byte_identical(values, 8, 1024, "ties scale=1");
}

TEST(Quantize, EmptyInput) {
  const auto q = quantize(std::vector<float>{}, 8);
  EXPECT_EQ(q.count, 0u);
  EXPECT_TRUE(dequantize(q).empty());
}

}  // namespace
}  // namespace abdhfl::nn
