#pragma once
// Binary (de)serialization of flat parameter vectors, used to checkpoint
// global models from the examples and to measure the wire size of a model
// update in the communication-cost accounting.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace abdhfl::nn {

/// Little-endian framing: magic, version, count, raw floats, FNV-1a digest.
[[nodiscard]] std::vector<std::uint8_t> serialize_params(std::span<const float> params);

/// Inverse of serialize_params; throws std::runtime_error on corruption.
[[nodiscard]] std::vector<float> deserialize_params(std::span<const std::uint8_t> bytes);

/// Wire size in bytes of a parameter vector of the given length.
[[nodiscard]] std::size_t wire_size(std::size_t param_count) noexcept;

/// Parameters plus optimizer state, as produced by deserialize_state.
/// velocity is empty when the blob carried none (momentum-free training, or
/// a version-1 params-only blob).
struct OptimState {
  std::vector<float> params;
  std::vector<std::vector<float>> velocity;  // aligned with Mlp::params()
};

/// Version-2 framing: params followed by the SGD momentum velocity buffers,
/// digest over the whole body.  Pass an empty velocity for momentum-free
/// state; the blob then decodes exactly like a params-only snapshot.
[[nodiscard]] std::vector<std::uint8_t> serialize_state(
    std::span<const float> params, const std::vector<std::vector<float>>& velocity);

/// Inverse of serialize_state.  Also accepts version-1 params-only blobs
/// (velocity comes back empty), so pre-existing checkpoints stay loadable.
/// Throws std::runtime_error on corruption.
[[nodiscard]] OptimState deserialize_state(std::span<const std::uint8_t> bytes);

void save_params(const std::string& path, std::span<const float> params);
[[nodiscard]] std::vector<float> load_params(const std::string& path);

}  // namespace abdhfl::nn
