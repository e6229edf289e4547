#include "ckpt/state.hpp"

namespace abdhfl::ckpt {

std::vector<std::uint8_t> encode_rng_states(std::span<const RngState> states) {
  PayloadWriter w;
  w.u64(states.size());
  for (const RngState& s : states) {
    for (std::uint64_t word : s) w.u64(word);
  }
  return w.take();
}

std::vector<RngState> decode_rng_states(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  const auto count = r.u64();
  if (count > r.remaining() / (4 * sizeof(std::uint64_t))) {
    throw CkptError("RNGS chunk count overruns payload");
  }
  std::vector<RngState> out(count);
  for (RngState& s : out) {
    for (std::uint64_t& word : s) word = r.u64();
  }
  r.expect_done();
  return out;
}

std::vector<std::uint8_t> encode_f32_buffers(
    const std::vector<std::vector<float>>& buffers) {
  PayloadWriter w;
  w.u64(buffers.size());
  for (const auto& b : buffers) w.f32vec(b);
  return w.take();
}

std::vector<std::vector<float>> decode_f32_buffers(std::span<const std::uint8_t> payload) {
  PayloadReader r(payload);
  const auto count = r.u64();
  // Each buffer costs at least its 8-byte length prefix.
  if (count > r.remaining() / sizeof(std::uint64_t)) {
    throw CkptError("buffer count overruns payload");
  }
  std::vector<std::vector<float>> out(count);
  for (auto& b : out) b = r.f32vec();
  r.expect_done();
  return out;
}

std::vector<std::uint8_t> encode_ledger(const obs::SuspicionLedger& ledger) {
  const auto s = ledger.state();
  PayloadWriter w;
  w.u64(ledger.num_nodes());
  w.u64(ledger.num_levels());
  w.u64(s.rounds);
  w.f64vec(s.ewma);
  w.f64vec(s.round);
  w.u64vec(s.filter_events);
  w.u64vec(s.observations);
  return w.take();
}

void restore_ledger(std::span<const std::uint8_t> payload, obs::SuspicionLedger& ledger) {
  PayloadReader r(payload);
  const auto nodes = r.u64();
  const auto levels = r.u64();
  if (nodes != ledger.num_nodes() || levels != ledger.num_levels()) {
    throw CkptError("SUSP chunk geometry does not match the ledger");
  }
  obs::SuspicionLedger::LedgerState s;
  s.rounds = r.u64();
  s.ewma = r.f64vec();
  s.round = r.f64vec();
  s.filter_events = r.u64vec();
  s.observations = r.u64vec();
  r.expect_done();
  try {
    ledger.set_state(s);
  } catch (const std::invalid_argument& e) {
    throw CkptError(e.what());
  }
}

}  // namespace abdhfl::ckpt
