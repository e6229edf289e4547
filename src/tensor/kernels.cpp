#include "tensor/kernels.hpp"

#include <algorithm>
#include <utility>

namespace abdhfl::tensor::kern {

#if defined(__GNUC__) || defined(__clang__)
#define ABDHFL_KERN_VEC 1
#endif

#ifdef ABDHFL_KERN_VEC

namespace {

// 16- and 32-byte vectors; the 32-byte ones lower to xmm pairs on SSE2 and
// to a single ymm under -march=native.  aligned(4) permits unaligned loads.
typedef float v4f __attribute__((vector_size(16), aligned(4)));
typedef float v8f __attribute__((vector_size(32), aligned(4)));
typedef double v4d __attribute__((vector_size(32), aligned(8)));

// The compare-exchange vector: one machine register, since GCC splits a
// wider-than-native comparison into scalar compares instead of xmm pairs.
#ifdef __AVX__
inline constexpr std::size_t kCmpBytes = 32;
#else
inline constexpr std::size_t kCmpBytes = 16;
#endif
typedef float cmpf __attribute__((vector_size(kCmpBytes), aligned(4)));
typedef std::int32_t cmpi __attribute__((vector_size(kCmpBytes), aligned(4)));

inline v4f load4(const float* p) noexcept {
  v4f v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline v8f load8(const float* p) noexcept {
  v8f v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void store8(float* p, v8f v) noexcept { __builtin_memcpy(p, &v, sizeof(v)); }

inline v4d to_v4d(v4f x) noexcept {
#if __has_builtin(__builtin_convertvector)
  return __builtin_convertvector(x, v4d);
#else
  return v4d{static_cast<double>(x[0]), static_cast<double>(x[1]),
             static_cast<double>(x[2]), static_cast<double>(x[3])};
#endif
}

inline v4f to_v4f(v4d x) noexcept {
#if __has_builtin(__builtin_convertvector)
  return __builtin_convertvector(x, v4f);
#else
  return v4f{static_cast<float>(x[0]), static_cast<float>(x[1]),
             static_cast<float>(x[2]), static_cast<float>(x[3])};
#endif
}

/// Fixed lane-reduction order shared by every float-lane reduction: pairwise
/// vector adds, then left-to-right scalar adds in double.
inline double flush(v4f s0, v4f s1, v4f s2, v4f s3, float tail) noexcept {
  const v4f s01 = s0 + s1;
  const v4f s23 = s2 + s3;
  return ((static_cast<double>(s01[0]) + s01[1]) +
          (static_cast<double>(s01[2]) + s01[3])) +
         ((static_cast<double>(s23[0]) + s23[1]) +
          (static_cast<double>(s23[2]) + s23[3])) +
         tail;
}

inline double flush_d(v4d s0, v4d s1, double tail) noexcept {
  const v4d s = s0 + s1;
  return ((s[0] + s[1]) + (s[2] + s[3])) + tail;
}

/// One flush block of the squared-distance reduction.
inline double dist2_block(const float* a, const float* b, std::size_t n) noexcept {
  v4f s0{}, s1{}, s2{}, s3{};
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const v4f d0 = load4(a + i) - load4(b + i);
    const v4f d1 = load4(a + i + 4) - load4(b + i + 4);
    const v4f d2 = load4(a + i + 8) - load4(b + i + 8);
    const v4f d3 = load4(a + i + 12) - load4(b + i + 12);
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  float tail = 0.0f;
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return flush(s0, s1, s2, s3, tail);
}

inline double dot_block(const float* a, const float* b, std::size_t n) noexcept {
  v4f s0{}, s1{}, s2{}, s3{};
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    s0 += load4(a + i) * load4(b + i);
    s1 += load4(a + i + 4) * load4(b + i + 4);
    s2 += load4(a + i + 8) * load4(b + i + 8);
    s3 += load4(a + i + 12) * load4(b + i + 12);
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i] * b[i];
  return flush(s0, s1, s2, s3, tail);
}

inline double norm2_block(const float* a, std::size_t n) noexcept {
  v4f s0{}, s1{}, s2{}, s3{};
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const v4f x0 = load4(a + i);
    const v4f x1 = load4(a + i + 4);
    const v4f x2 = load4(a + i + 8);
    const v4f x3 = load4(a + i + 12);
    s0 += x0 * x0;
    s1 += x1 * x1;
    s2 += x2 * x2;
    s3 += x3 * x3;
  }
  float tail = 0.0f;
  for (; i < n; ++i) tail += a[i] * a[i];
  return flush(s0, s1, s2, s3, tail);
}

}  // namespace

double dot(const float* a, const float* b, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t lo = 0; lo < n; lo += kFlushBlock) {
    const std::size_t len = std::min(kFlushBlock, n - lo);
    total += dot_block(a + lo, b + lo, len);
  }
  return total;
}

double norm2_squared(const float* a, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t lo = 0; lo < n; lo += kFlushBlock) {
    const std::size_t len = std::min(kFlushBlock, n - lo);
    total += norm2_block(a + lo, len);
  }
  return total;
}

double distance_squared(const float* a, const float* b, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t lo = 0; lo < n; lo += kFlushBlock) {
    const std::size_t len = std::min(kFlushBlock, n - lo);
    total += dist2_block(a + lo, b + lo, len);
  }
  return total;
}

double distance_squared_df(const double* a, const float* b, std::size_t n) noexcept {
  v4d s0{}, s1{};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    v4d x0, x1;
    __builtin_memcpy(&x0, a + i, sizeof(x0));
    __builtin_memcpy(&x1, a + i + 4, sizeof(x1));
    const v4d d0 = x0 - to_v4d(load4(b + i));
    const v4d d1 = x1 - to_v4d(load4(b + i + 4));
    s0 += d0 * d0;
    s1 += d1 * d1;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail += d * d;
  }
  return flush_d(s0, s1, tail);
}

void axpy(double alpha, const float* x, float* y, std::size_t n) noexcept {
  const v4d va = {alpha, alpha, alpha, alpha};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const v4d r = to_v4d(load4(y + i)) + va * to_v4d(load4(x + i));
    const v4f out = to_v4f(r);
    __builtin_memcpy(y + i, &out, sizeof(out));
  }
  for (; i < n; ++i) y[i] = static_cast<float>(y[i] + alpha * x[i]);
}

void axpby(double alpha, const float* x, double beta, float* y,
           std::size_t n) noexcept {
  const v4d va = {alpha, alpha, alpha, alpha};
  const v4d vb = {beta, beta, beta, beta};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const v4d r = va * to_v4d(load4(x + i)) + vb * to_v4d(load4(y + i));
    const v4f out = to_v4f(r);
    __builtin_memcpy(y + i, &out, sizeof(out));
  }
  for (; i < n; ++i) y[i] = static_cast<float>(alpha * x[i] + beta * y[i]);
}

void scale(float* x, double alpha, std::size_t n) noexcept {
  const v4d va = {alpha, alpha, alpha, alpha};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const v4f out = to_v4f(to_v4d(load4(x + i)) * va);
    __builtin_memcpy(x + i, &out, sizeof(out));
  }
  for (; i < n; ++i) x[i] = static_cast<float>(x[i] * alpha);
}

void add(const float* a, const float* b, float* out, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) store8(out + i, load8(a + i) + load8(b + i));
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void sub(const float* a, const float* b, float* out, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) store8(out + i, load8(a + i) - load8(b + i));
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void lerp(const float* a, const float* b, double alpha, double beta, float* out,
          std::size_t n) noexcept {
  const v4d va = {alpha, alpha, alpha, alpha};
  const v4d vb = {beta, beta, beta, beta};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const v4f r = to_v4f(va * to_v4d(load4(a + i)) + vb * to_v4d(load4(b + i)));
    __builtin_memcpy(out + i, &r, sizeof(r));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(alpha * a[i] + beta * b[i]);
}

void accumulate(const float* x, double* acc, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4d a;
    __builtin_memcpy(&a, acc + i, sizeof(a));
    a += to_v4d(load4(x + i));
    __builtin_memcpy(acc + i, &a, sizeof(a));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

void accumulate_scaled(double w, const float* x, double* acc,
                       std::size_t n) noexcept {
  const v4d vw = {w, w, w, w};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4d a;
    __builtin_memcpy(&a, acc + i, sizeof(a));
    a += vw * to_v4d(load4(x + i));
    __builtin_memcpy(acc + i, &a, sizeof(a));
  }
  for (; i < n; ++i) acc[i] += w * x[i];
}

void accumulate_clipped_diff(double s, const float* u, const float* v,
                             double* acc, std::size_t n) noexcept {
  const v4d vs = {s, s, s, s};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v4d a;
    __builtin_memcpy(&a, acc + i, sizeof(a));
    a += vs * to_v4d(load4(u + i) - load4(v + i));
    __builtin_memcpy(acc + i, &a, sizeof(a));
  }
  for (; i < n; ++i) acc[i] += s * static_cast<double>(u[i] - v[i]);
}

void sort_tile_columns(float* tile, const Comparator* net,
                       std::size_t count) noexcept {
  for (std::size_t s = 0; s < count; ++s) {
    float* lo = tile + net[s].lo * kSortTile;
    float* hi = tile + net[s].hi * kSortTile;
#pragma GCC unroll 16
    for (std::size_t c = 0; c < kSortTile; c += kCmpBytes / sizeof(float)) {
      // Conditional swap through a mask: min/max would return their second
      // operand on +-0 and NaN and so duplicate one value and drop the other.
      cmpi a, b;
      __builtin_memcpy(&a, lo + c, sizeof(a));
      __builtin_memcpy(&b, hi + c, sizeof(b));
      cmpi diff = (a ^ b) & ((cmpf)b < (cmpf)a);
      // Opaque to the optimizer: GCC otherwise rewrites the two XORs into two
      // and/andnot/or selects, which on SSE2 runs the network ~1.8x slower.
      __asm__("" : "+x"(diff));
      a ^= diff;
      b ^= diff;
      __builtin_memcpy(lo + c, &a, sizeof(a));
      __builtin_memcpy(hi + c, &b, sizeof(b));
    }
  }
}

void mean_tile_rows(const float* tile, std::size_t row_lo, std::size_t rows,
                    std::size_t width, float* out) noexcept {
  double acc[kSortTile] = {};
  for (std::size_t r = row_lo; r < row_lo + rows; ++r) {
    accumulate(tile + r * kSortTile, acc, width);
  }
  const double d = static_cast<double>(rows);
  const v4d den = {d, d, d, d};
  std::size_t c = 0;
  for (; c + 4 <= width; c += 4) {
    v4d sum;
    __builtin_memcpy(&sum, acc + c, sizeof(sum));
    const v4f mean = to_v4f(sum / den);
    __builtin_memcpy(out + c, &mean, sizeof(mean));
  }
  for (; c < width; ++c) out[c] = static_cast<float>(acc[c] / d);
}

#else  // !ABDHFL_KERN_VEC — scalar fallback with the same reduction tree

namespace {

inline double dist2_block(const float* a, const float* b, std::size_t n) noexcept {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f, tail = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float d0 = a[i] - b[i], d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2], d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    tail += d * d;
  }
  return (static_cast<double>(s0) + s1) + (static_cast<double>(s2) + s3) + tail;
}

}  // namespace

double dot(const float* a, const float* b, std::size_t n) noexcept {
  return dot_ref(a, b, n);
}
double norm2_squared(const float* a, std::size_t n) noexcept {
  return norm2_squared_ref(a, n);
}
double distance_squared(const float* a, const float* b, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t lo = 0; lo < n; lo += kFlushBlock) {
    total += dist2_block(a + lo, b + lo, std::min(kFlushBlock, n - lo));
  }
  return total;
}
double distance_squared_df(const double* a, const float* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}
void axpy(double alpha, const float* x, float* y, std::size_t n) noexcept {
  axpy_ref(alpha, x, y, n);
}
void axpby(double alpha, const float* x, double beta, float* y,
           std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<float>(alpha * x[i] + beta * y[i]);
  }
}
void scale(float* x, double alpha, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = static_cast<float>(x[i] * alpha);
}
void add(const float* a, const float* b, float* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}
void sub(const float* a, const float* b, float* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}
void lerp(const float* a, const float* b, double alpha, double beta, float* out,
          std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(alpha * a[i] + beta * b[i]);
  }
}
void accumulate(const float* x, double* acc, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i];
}
void accumulate_scaled(double w, const float* x, double* acc,
                       std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) acc[i] += w * x[i];
}
void accumulate_clipped_diff(double s, const float* u, const float* v,
                             double* acc, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] += s * static_cast<double>(u[i] - v[i]);
  }
}
void sort_tile_columns(float* tile, const Comparator* net,
                       std::size_t count) noexcept {
  for (std::size_t s = 0; s < count; ++s) {
    float* lo = tile + net[s].lo * kSortTile;
    float* hi = tile + net[s].hi * kSortTile;
    for (std::size_t c = 0; c < kSortTile; ++c) {
      if (hi[c] < lo[c]) std::swap(lo[c], hi[c]);
    }
  }
}
void mean_tile_rows(const float* tile, std::size_t row_lo, std::size_t rows,
                    std::size_t width, float* out) noexcept {
  double acc[kSortTile] = {};
  for (std::size_t r = row_lo; r < row_lo + rows; ++r) {
    accumulate(tile + r * kSortTile, acc, width);
  }
  const double d = static_cast<double>(rows);
  for (std::size_t c = 0; c < width; ++c) out[c] = static_cast<float>(acc[c] / d);
}

#endif  // ABDHFL_KERN_VEC

double dot_ref(const float* a, const float* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return acc;
}

double norm2_squared_ref(const float* a, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * a[i];
  }
  return acc;
}

double distance_squared_ref(const float* a, const float* b, std::size_t n) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}

void axpy_ref(double alpha, const float* x, float* y, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = static_cast<float>(y[i] + alpha * x[i]);
  }
}

std::vector<Comparator> sorting_network(std::size_t n) {
  // Iterative Batcher: p is the size of the sorted runs being merged, k the
  // comparator distance within the merge.  The run test keeps comparators
  // inside one 2p-block, and the bounds drop every row >= n.
  std::vector<Comparator> net;
  for (std::size_t p = 1; p < n; p <<= 1) {
    for (std::size_t k = p; k >= 1; k >>= 1) {
      for (std::size_t j = k % p; j + k < n; j += 2 * k) {
        for (std::size_t i = 0; i < std::min(k, n - j - k); ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            net.push_back({static_cast<std::uint32_t>(i + j),
                           static_cast<std::uint32_t>(i + j + k)});
          }
        }
      }
    }
  }
  return net;
}

}  // namespace abdhfl::tensor::kern
