#include "net/loopback.hpp"

#include <memory>
#include <stdexcept>
#include <variant>

#include "obs/blackbox.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace abdhfl::net {

LoopbackTransport::LoopbackTransport() : Transport("loopback") {}

LoopbackTransport::LoopbackTransport(sim::Simulator& simulator, sim::Network& network)
    : Transport("loopback"), simulator_(&simulator), network_(&network) {}

void LoopbackTransport::register_node(NodeId id, MessageHandler handler) {
  if (!handler) throw std::invalid_argument("LoopbackTransport: null handler");
  handlers_[id] = std::move(handler);
  if (network_ != nullptr) {
    // Bridge: the sim delivers the encoded frame; decoding happens here so
    // the receive path exercises the codec exactly like a socket read.
    network_->register_node(id, [this](const sim::Message& msg) {
      const auto& frame = sim::payload_cast<EncodedFrame>(msg);
      deliver(frame.bytes, frame.link_class);
    });
  }
}

SendStatus LoopbackTransport::send(const Envelope& env, const Payload& payload,
                                   std::uint32_t link_class) {
  if (handlers_.find(env.to) == handlers_.end()) return SendStatus::kNoRoute;
  obs::Span span(trace(), "net_send", static_cast<std::size_t>(env.round), env.to);

  const Codec codec = codec_for(env.from, env.to);
  CodecState* tx = codec.delta ? &tx_codec_state(env.from, env.to) : nullptr;
  TraceContext trace_ctx;
  if (tracing_to(env.to)) {
    trace_ctx = {span.trace_id(), span.id(), span.parent_id(), obs::wall_clock_ns()};
  }
  encode_frame_parts(env, payload, codec, tx, tx_parts_,
                     trace_ctx.valid() ? &trace_ctx : nullptr);
  auto frame = tx_parts_.concat();
  // Queueing is delivery here (FIFO, no losses), so the tx base commits now.
  if (tx != nullptr) tx_parts_.commit_tx(*tx);
  note_sent(frame.size(), encoded_size(payload), link_class, env.to);
  obs::blackbox::record(
      obs::blackbox::EventType::kFrameTx,
      static_cast<std::uint16_t>(std::visit(
          [](const auto& p) { return std::decay_t<decltype(p)>::kMessageKind; },
          payload)),
      env.from, env.round, env.to, frame.size());

  if (network_ != nullptr) {
    sim::Message msg;
    msg.from = env.from;
    msg.to = env.to;
    msg.kind = EncodedFrame::kMessageKind;
    msg.round = env.round;
    msg.bytes = frame.size();
    msg.bytes_estimated = estimated_payload_bytes(payload);
    msg.payload =
        std::make_shared<const EncodedFrame>(EncodedFrame{std::move(frame), link_class});
    network_->send(std::move(msg), link_class);
    return SendStatus::kOk;
  }

  queue_.emplace_back(std::move(frame), link_class);
  return SendStatus::kOk;
}

std::uint64_t LoopbackTransport::backlog_bytes(std::uint32_t link_class) const {
  std::uint64_t total = 0;
  for (const auto& [frame, cls] : queue_) {
    if (cls == link_class) total += frame.size();
  }
  return total;
}

std::size_t LoopbackTransport::poll(double timeout_s) {
  (void)timeout_s;  // nothing to wait for in-process
  obs::blackbox::note_poll_tick();
  if (network_ != nullptr) {
    // Delivery is driven by the simulator's event loop.
    simulator_->run();
    return 0;
  }
  std::size_t delivered = 0;
  // Handlers may send while we drain, so swap batches until quiescent.
  while (!queue_.empty()) {
    auto [frame, link_class] = std::move(queue_.front());
    queue_.pop_front();
    deliver(frame, link_class);
    ++delivered;
  }
  return delivered;
}

void LoopbackTransport::deliver(const std::vector<std::uint8_t>& frame,
                                std::uint32_t link_class) {
  FrameView view;
  try {
    view = FrameView::parse(frame);
  } catch (const WireError&) {
    note_decode_error();
    return;
  }
  const auto it = handlers_.find(view.env().to);
  try {
    deliver_frame(view, link_class,
                  it != handlers_.end() ? it->second : MessageHandler{});
  } catch (const WireError&) {
    // Loopback has no connection to drop; the frame is simply rejected.
    note_decode_error();
  }
}

}  // namespace abdhfl::net
