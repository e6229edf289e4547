#pragma once
// In-process transport backend.
//
// Frames are fully encoded and decoded on every hop — the loopback differs
// from TCP only in where the bytes travel, so traffic accounting, codec
// behaviour, and corruption detection are identical across backends (the
// property the distributed runner's bitwise-equivalence check relies on).
// Delivery funnels through the shared Transport::deliver_frame tail, so
// decoding and the per-link delta bases behave exactly like the socket
// backend.
//
// Two delivery modes:
//   * standalone — frames queue in FIFO order and are delivered on poll();
//     FIFO order is what makes the delta codec safe here;
//   * simulator-backed — frames ride sim::Network as Message payloads, so
//     the latency models and the discrete-event clock apply and the sim's
//     per-link-class byte meters report *real encoded* frame sizes instead
//     of caller estimates.  Delivery then happens inside Simulator::run().
//     Latency models may reorder frames, so the delta codec must not be
//     negotiated over a sim-backed loopback (DESIGN.md §11).

#include <deque>
#include <unordered_map>

#include "net/transport.hpp"

namespace abdhfl::sim {
class Network;
class Simulator;
}

namespace abdhfl::net {

class LoopbackTransport : public Transport {
 public:
  /// Standalone FIFO delivery.
  LoopbackTransport();

  /// Ride the simulated network: send() forwards encoded frames through
  /// `network` (which meters them and applies its latency model) and
  /// delivery happens when the simulator fires the event.  Callers must keep
  /// both alive for the transport's lifetime.
  LoopbackTransport(sim::Simulator& simulator, sim::Network& network);

  void register_node(NodeId id, MessageHandler handler) override;
  SendStatus send(const Envelope& env, const Payload& payload,
                  std::uint32_t link_class = 0) override;
  std::size_t poll(double timeout_s) override;

  /// Bytes queued for delivery on `link_class` (standalone mode; sim-backed
  /// delivery queues inside the simulator, which meters its own links).
  [[nodiscard]] std::uint64_t backlog_bytes(std::uint32_t link_class) const override;

 private:
  void deliver(const std::vector<std::uint8_t>& frame, std::uint32_t link_class);

  sim::Simulator* simulator_ = nullptr;
  sim::Network* network_ = nullptr;
  std::unordered_map<NodeId, MessageHandler> handlers_;
  std::deque<std::pair<std::vector<std::uint8_t>, std::uint32_t>> queue_;
  // Reused encode staging (capacity persists across sends; handlers never
  // run inside send(), so a single scratch is safe).
  EncodedParts tx_parts_;
};

}  // namespace abdhfl::net
