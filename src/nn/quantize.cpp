#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace abdhfl::nn {

namespace {

constexpr float kFastRoundLimit = 2147483648.0f;  // 2^31

/// std::lround of a block quotient.  For finite x in [0, 2^31), rounding
/// half away from zero is floor(x + 0.5), and that sum is exact in double
/// wherever it can reach the next integer, so the truncating cast is
/// lround's exact equivalent without the libm call.  NaN, negative and huge
/// quotients go through lround itself and keep its bytes.
inline std::uint32_t round_code(float x) {
  if (x >= 0.0f && x < kFastRoundLimit) {
    return static_cast<std::uint32_t>(static_cast<double>(x) + 0.5);
  }
  return static_cast<std::uint32_t>(std::lround(x));
}

inline float load_float(const std::uint8_t* p) {
  float v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_float(std::uint8_t* p, float v) { std::memcpy(p, &v, sizeof v); }

// Code sinks and sources see every value once, in index order.  8 and 4
// bits are byte- and nibble-addressed; other widths stream through a 64-bit
// word accumulator.  All three produce the same LSB-first byte stream.

struct ByteSink {
  std::uint8_t* out;
  void operator()(std::size_t i, std::uint32_t code) {
    out[i] = static_cast<std::uint8_t>(code);
  }
  void finish() {}
};

struct NibbleSink {
  std::uint8_t* out;
  void operator()(std::size_t i, std::uint32_t code) {
    if ((i & 1) == 0) {
      out[i >> 1] = static_cast<std::uint8_t>(code);
    } else {
      out[i >> 1] |= static_cast<std::uint8_t>(code << 4);
    }
  }
  void finish() {}
};

class WordSink {
 public:
  WordSink(std::uint8_t* out, unsigned bits) : out_(out), bits_(bits) {}
  void operator()(std::size_t, std::uint32_t code) {
    acc_ |= std::uint64_t{code} << fill_;
    fill_ += bits_;
    if (fill_ >= 32) {
      for (unsigned k = 0; k < 4; ++k) *out_++ = static_cast<std::uint8_t>(acc_ >> (8 * k));
      acc_ >>= 32;
      fill_ -= 32;
    }
  }
  void finish() {
    for (; fill_ > 0; fill_ = fill_ > 8 ? fill_ - 8 : 0) {
      *out_++ = static_cast<std::uint8_t>(acc_);
      acc_ >>= 8;
    }
  }

 private:
  std::uint8_t* out_;
  unsigned bits_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

struct ByteSource {
  const std::uint8_t* in;
  std::uint32_t operator()(std::size_t i) const { return in[i]; }
};

struct NibbleSource {
  const std::uint8_t* in;
  std::uint32_t operator()(std::size_t i) const {
    return (in[i >> 1] >> ((i & 1) * 4)) & 0xFu;
  }
};

class WordSource {
 public:
  WordSource(std::span<const std::uint8_t> in, unsigned bits)
      : in_(in.data()), end_(in.data() + in.size()), bits_(bits), mask_((1u << bits) - 1) {}
  std::uint32_t operator()(std::size_t) {
    if (fill_ < bits_) refill();
    const auto code = static_cast<std::uint32_t>(acc_) & mask_;
    acc_ >>= bits_;
    fill_ -= bits_;
    return code;
  }

 private:
  void refill() {
    if (end_ - in_ >= 4) {
      std::uint64_t word = 0;
      for (unsigned k = 0; k < 4; ++k) word |= std::uint64_t{in_[k]} << (8 * k);
      acc_ |= word << fill_;
      in_ += 4;
      fill_ += 32;
      return;
    }
    for (; fill_ < bits_ && in_ != end_; fill_ += 8) acc_ |= std::uint64_t{*in_++} << fill_;
  }

  const std::uint8_t* in_;
  const std::uint8_t* end_;
  unsigned bits_;
  std::uint32_t mask_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

template <class Sink>
void quantize_blocks(std::span<const float> values, std::uint8_t bits, std::uint32_t block,
                     std::uint8_t* table, Sink sink) {
  const auto levels = static_cast<std::uint32_t>((1U << bits) - 1);
  for (std::size_t lo = 0; lo < values.size(); lo += block, table += kBlockEntryBytes) {
    const std::size_t hi = std::min<std::size_t>(values.size(), lo + block);
    float mn = values[lo], mx = values[lo];
    for (std::size_t i = lo; i < hi; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
    const float range = mx - mn;
    const float scale = range > 0.0f ? range / static_cast<float>(levels) : 0.0f;
    store_float(table, scale);
    store_float(table + sizeof(float), mn);
    if (scale > 0.0f) {
      for (std::size_t i = lo; i < hi; ++i) {
        sink(i, std::min(round_code((values[i] - mn) / scale), levels));
      }
    } else {
      for (std::size_t i = lo; i < hi; ++i) sink(i, 0);
    }
  }
  sink.finish();
}

template <class Source>
void dequantize_blocks(const std::uint8_t* table, std::uint32_t block, Source source,
                       std::span<float> out) {
  for (std::size_t lo = 0; lo < out.size(); lo += block, table += kBlockEntryBytes) {
    const std::size_t hi = std::min<std::size_t>(out.size(), lo + block);
    const float scale = load_float(table);
    const float mn = load_float(table + sizeof(float));
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = mn + scale * static_cast<float>(source(i));
    }
  }
}

}  // namespace

std::size_t QuantizedVec::wire_size() const noexcept {
  // header: bits + block + count; per block: scale + min; packed payload.
  return sizeof(bits) + sizeof(block) + sizeof(count) +
         scales.size() * sizeof(float) * 2 + data.size();
}

std::size_t block_count(std::size_t count, std::uint32_t block) noexcept {
  return block == 0 ? 0 : (count + block - 1) / block;
}

std::size_t code_bytes(std::size_t count, std::uint8_t bits) noexcept {
  return (count * bits + 7) / 8;
}

void quantize_into(std::span<const float> values, std::uint8_t bits, std::uint32_t block,
                   std::span<std::uint8_t> table, std::span<std::uint8_t> codes) {
  if (bits == 0 || bits > 8) throw std::invalid_argument("quantize: bits must be 1..8");
  if (block == 0) throw std::invalid_argument("quantize: zero block size");
  if (table.size() < block_count(values.size(), block) * kBlockEntryBytes ||
      codes.size() < code_bytes(values.size(), bits)) {
    throw std::invalid_argument("quantize: output spans too small");
  }
  switch (bits) {
    case 8:
      quantize_blocks(values, bits, block, table.data(), ByteSink{codes.data()});
      break;
    case 4:
      quantize_blocks(values, bits, block, table.data(), NibbleSink{codes.data()});
      break;
    default:
      quantize_blocks(values, bits, block, table.data(), WordSink(codes.data(), bits));
  }
}

void dequantize_into(std::span<const std::uint8_t> table,
                     std::span<const std::uint8_t> codes, std::uint8_t bits,
                     std::uint32_t block, std::span<float> out) {
  if (bits == 0 || bits > 8) throw std::invalid_argument("dequantize: bad bits");
  if (block == 0) throw std::invalid_argument("dequantize: zero block size");
  if (table.size() < block_count(out.size(), block) * kBlockEntryBytes) {
    throw std::invalid_argument("dequantize: missing block");
  }
  if (codes.size() < code_bytes(out.size(), bits)) {
    throw std::invalid_argument("dequantize: truncated");
  }
  switch (bits) {
    case 8:
      dequantize_blocks(table.data(), block, ByteSource{codes.data()}, out);
      break;
    case 4:
      dequantize_blocks(table.data(), block, NibbleSource{codes.data()}, out);
      break;
    default:
      dequantize_blocks(table.data(), block, WordSource(codes, bits), out);
  }
}

QuantizedVec quantize(std::span<const float> values, std::uint8_t bits,
                      std::uint32_t block) {
  QuantizedVec q;
  q.bits = bits;
  q.block = block;
  q.count = values.size();
  const std::size_t n_blocks = block_count(values.size(), block);
  std::vector<std::uint8_t> table(n_blocks * kBlockEntryBytes);
  q.data.resize(code_bytes(values.size(), bits));
  quantize_into(values, bits, block, table, q.data);
  q.scales.resize(n_blocks);
  q.mins.resize(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    q.scales[b] = load_float(table.data() + b * kBlockEntryBytes);
    q.mins[b] = load_float(table.data() + b * kBlockEntryBytes + sizeof(float));
  }
  return q;
}

std::vector<float> dequantize(const QuantizedVec& q) {
  if (q.bits == 0 || q.bits > 8) throw std::invalid_argument("dequantize: bad bits");
  if (q.block == 0) throw std::invalid_argument("dequantize: zero block size");
  // Bound count by the packed bytes present before it sizes anything.
  if (q.count > static_cast<std::uint64_t>(q.data.size()) * 8 / q.bits) {
    throw std::invalid_argument("dequantize: truncated");
  }
  const auto count = static_cast<std::size_t>(q.count);
  const std::size_t n_blocks = block_count(count, q.block);
  if (q.scales.size() < n_blocks || q.mins.size() < n_blocks) {
    throw std::invalid_argument("dequantize: missing block");
  }
  std::vector<std::uint8_t> table(n_blocks * kBlockEntryBytes);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    store_float(table.data() + b * kBlockEntryBytes, q.scales[b]);
    store_float(table.data() + b * kBlockEntryBytes + sizeof(float), q.mins[b]);
  }
  std::vector<float> out(count);
  dequantize_into(table, q.data, q.bits, q.block, out);
  return out;
}

double max_error_bound(double value_range, std::uint8_t bits) noexcept {
  if (bits == 0) return value_range;
  const double levels = static_cast<double>((1U << bits) - 1);
  return levels > 0.0 ? value_range / levels / 2.0 : value_range;
}

}  // namespace abdhfl::nn
