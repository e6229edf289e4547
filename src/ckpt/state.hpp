#pragma once
// Typed chunk registry + encoders for the state every runner checkpoints.
//
// The container layer (container.hpp) moves opaque tagged payloads; this
// header fixes what the tags mean so runners, nodes, tools/ckpt_inspect and
// tests agree on one vocabulary:
//
//   PARM  current global/merged model parameters (f32vec)
//   VELO  SGD momentum velocity buffers (count + f32vec each)
//   RNGS  per-stream RNG states (count + 4xu64 each; stream order is the
//         producer's documented order, typically runner RNG then trainers)
//   LOSS  per-trainer last_loss values (f64vec, aligned with RNGS trainers)
//   ROUN  round/progress counters (producer-specific u64s)
//   LRSC  learning-rate schedule position (base LR + schedule round, f64+u64)
//   PIPE  pipeline flag / correction-factor state
//   SUSP  SuspicionLedger state (geometry + EWMA/round/event arrays)
//   DEVS  per-device start parameters (count + f32vec each)
//   EVNT  pending discrete-event records (producer-specific)
//   RSLT  partial run results accumulated so far (producer-specific)
//   XTRA  anything producer-specific that fits no other tag
//
// Readers must tolerate unknown tags (skip them) and missing optional ones;
// require() only what the producer always writes.  (Root snapshots of older
// builds carry a TOPO topology-mirror chunk that nothing reads any more.)

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/container.hpp"
#include "obs/suspicion.hpp"
#include "util/rng.hpp"

namespace abdhfl::ckpt {

inline constexpr std::uint32_t kTagParams = fourcc("PARM");
inline constexpr std::uint32_t kTagVelocity = fourcc("VELO");
inline constexpr std::uint32_t kTagRngStates = fourcc("RNGS");
inline constexpr std::uint32_t kTagLosses = fourcc("LOSS");
inline constexpr std::uint32_t kTagRound = fourcc("ROUN");
inline constexpr std::uint32_t kTagLrSchedule = fourcc("LRSC");
inline constexpr std::uint32_t kTagPipeline = fourcc("PIPE");
inline constexpr std::uint32_t kTagLedger = fourcc("SUSP");
inline constexpr std::uint32_t kTagDevices = fourcc("DEVS");
inline constexpr std::uint32_t kTagEvents = fourcc("EVNT");
inline constexpr std::uint32_t kTagResult = fourcc("RSLT");
inline constexpr std::uint32_t kTagExtra = fourcc("XTRA");

using RngState = std::array<std::uint64_t, 4>;

/// RNGS payload: count + each stream's 4x64-bit xoshiro words.
[[nodiscard]] std::vector<std::uint8_t> encode_rng_states(
    std::span<const RngState> states);
[[nodiscard]] std::vector<RngState> decode_rng_states(
    std::span<const std::uint8_t> payload);

/// VELO / DEVS payload: count + one f32vec per entry.
[[nodiscard]] std::vector<std::uint8_t> encode_f32_buffers(
    const std::vector<std::vector<float>>& buffers);
[[nodiscard]] std::vector<std::vector<float>> decode_f32_buffers(
    std::span<const std::uint8_t> payload);

/// SUSP payload: nodes/levels geometry + the ledger's full mutable state.
[[nodiscard]] std::vector<std::uint8_t> encode_ledger(const obs::SuspicionLedger& ledger);
/// Restore into a ledger of matching geometry; CkptError on mismatch.
void restore_ledger(std::span<const std::uint8_t> payload, obs::SuspicionLedger& ledger);

}  // namespace abdhfl::ckpt
