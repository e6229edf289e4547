#include "nn/serialize.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace abdhfl::nn {

namespace {

constexpr std::uint32_t kMagic = 0xABD4F17EU;
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kVersionState = 2;
// A velocity buffer per parameter tensor; no real model has anywhere near
// this many, so a larger count is a forged header, not a big model.
constexpr std::uint32_t kMaxVelocityBuffers = 1u << 16;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

template <class T>
void append_pod(std::vector<std::uint8_t>& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <class T>
T read_pod(std::span<const std::uint8_t> bytes, std::size_t& offset) {
  if (offset + sizeof(T) > bytes.size()) throw std::runtime_error("truncated model blob");
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

}  // namespace

std::size_t wire_size(std::size_t param_count) noexcept {
  return sizeof(kMagic) + sizeof(kVersion) + sizeof(std::uint64_t) +
         param_count * sizeof(float) + sizeof(std::uint64_t);
}

std::vector<std::uint8_t> serialize_params(std::span<const float> params) {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size(params.size()));
  append_pod(out, kMagic);
  append_pod(out, kVersion);
  append_pod(out, static_cast<std::uint64_t>(params.size()));
  const auto* raw = reinterpret_cast<const std::uint8_t*>(params.data());
  out.insert(out.end(), raw, raw + params.size() * sizeof(float));
  append_pod(out, fnv1a(raw, params.size() * sizeof(float)));
  return out;
}

std::vector<float> deserialize_params(std::span<const std::uint8_t> bytes) {
  std::size_t offset = 0;
  const auto magic = read_pod<std::uint32_t>(bytes, offset);
  if (magic != kMagic) {
    if (magic == __builtin_bswap32(kMagic)) {
      throw std::runtime_error(
          "big-endian model blob (byte-swapped magic): the wire format is "
          "little-endian only");
    }
    throw std::runtime_error("bad model blob magic");
  }
  if (read_pod<std::uint32_t>(bytes, offset) != kVersion) {
    throw std::runtime_error("unsupported model blob version");
  }
  const auto count = read_pod<std::uint64_t>(bytes, offset);
  // Bound count before it sizes the vector: the naive size check would wrap
  // for count near 2^62 and admit an absurd allocation.
  if (bytes.size() - offset < sizeof(std::uint64_t) ||
      count > (bytes.size() - offset - sizeof(std::uint64_t)) / sizeof(float)) {
    throw std::runtime_error("truncated model blob payload");
  }
  std::vector<float> params(count);
  std::memcpy(params.data(), bytes.data() + offset, count * sizeof(float));
  offset += count * sizeof(float);
  const auto digest = read_pod<std::uint64_t>(bytes, offset);
  const auto* raw = reinterpret_cast<const std::uint8_t*>(params.data());
  if (digest != fnv1a(raw, count * sizeof(float))) {
    throw std::runtime_error("model blob digest mismatch");
  }
  return params;
}

std::vector<std::uint8_t> serialize_state(std::span<const float> params,
                                          const std::vector<std::vector<float>>& velocity) {
  if (velocity.size() > kMaxVelocityBuffers) {
    throw std::runtime_error("serialize_state: too many velocity buffers");
  }
  std::vector<std::uint8_t> out;
  std::size_t vel_floats = 0;
  for (const auto& v : velocity) vel_floats += v.size();
  out.reserve(wire_size(params.size()) + sizeof(std::uint32_t) +
              velocity.size() * sizeof(std::uint64_t) + vel_floats * sizeof(float));
  append_pod(out, kMagic);
  append_pod(out, kVersionState);
  append_pod(out, static_cast<std::uint64_t>(params.size()));
  const auto* raw = reinterpret_cast<const std::uint8_t*>(params.data());
  out.insert(out.end(), raw, raw + params.size() * sizeof(float));
  append_pod(out, static_cast<std::uint32_t>(velocity.size()));
  for (const auto& v : velocity) {
    append_pod(out, static_cast<std::uint64_t>(v.size()));
    const auto* vraw = reinterpret_cast<const std::uint8_t*>(v.data());
    out.insert(out.end(), vraw, vraw + v.size() * sizeof(float));
  }
  const std::size_t body = sizeof(kMagic) + sizeof(kVersionState);
  append_pod(out, fnv1a(out.data() + body, out.size() - body));
  return out;
}

OptimState deserialize_state(std::span<const std::uint8_t> bytes) {
  std::size_t offset = 0;
  const auto magic = read_pod<std::uint32_t>(bytes, offset);
  if (magic != kMagic) {
    if (magic == __builtin_bswap32(kMagic)) {
      throw std::runtime_error(
          "big-endian model blob (byte-swapped magic): the wire format is "
          "little-endian only");
    }
    throw std::runtime_error("bad model blob magic");
  }
  const auto version = read_pod<std::uint32_t>(bytes, offset);
  if (version == kVersion) {
    // Params-only blob from before optimizer state existed.
    OptimState state;
    state.params = deserialize_params(bytes);
    return state;
  }
  if (version != kVersionState) {
    throw std::runtime_error("unsupported model blob version");
  }
  const std::size_t body = offset;
  // Every count is bounded against the remaining bytes (minus the trailing
  // digest) BEFORE it sizes an allocation, same discipline as the v1 path.
  auto remaining_floats = [&]() -> std::uint64_t {
    if (bytes.size() - offset < sizeof(std::uint64_t)) return 0;
    return (bytes.size() - offset - sizeof(std::uint64_t)) / sizeof(float);
  };
  OptimState state;
  const auto count = read_pod<std::uint64_t>(bytes, offset);
  if (count > remaining_floats()) throw std::runtime_error("truncated model blob payload");
  state.params.resize(count);
  std::memcpy(state.params.data(), bytes.data() + offset, count * sizeof(float));
  offset += count * sizeof(float);
  const auto buffers = read_pod<std::uint32_t>(bytes, offset);
  if (buffers > kMaxVelocityBuffers) {
    throw std::runtime_error("model blob velocity buffer count out of range");
  }
  state.velocity.resize(buffers);
  for (auto& v : state.velocity) {
    const auto n = read_pod<std::uint64_t>(bytes, offset);
    if (n > remaining_floats()) throw std::runtime_error("truncated model blob payload");
    v.resize(n);
    std::memcpy(v.data(), bytes.data() + offset, n * sizeof(float));
    offset += n * sizeof(float);
  }
  const std::size_t payload_end = offset;
  const auto digest = read_pod<std::uint64_t>(bytes, offset);
  if (offset != bytes.size()) throw std::runtime_error("trailing bytes after model blob");
  if (digest != fnv1a(bytes.data() + body, payload_end - body)) {
    throw std::runtime_error("model blob digest mismatch");
  }
  return state;
}

void save_params(const std::string& path, std::span<const float> params) {
  const auto bytes = serialize_params(params);
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("write failed: " + path);
}

std::vector<float> load_params(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  return deserialize_params(bytes);
}

}  // namespace abdhfl::nn
