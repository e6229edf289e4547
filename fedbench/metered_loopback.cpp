#include "metered_loopback.hpp"

#include <algorithm>
#include <utility>
#include <variant>

#include "net/hier/roles.hpp"
#include "net/node.hpp"
#include "obs/trace.hpp"
#include "topology/plan.hpp"

namespace fedbench {

namespace net = abdhfl::net;

namespace {

[[nodiscard]] bool is_tree_top(NodeId id) noexcept {
  return id == net::kRootId || net::is_top(id);
}

}  // namespace

const char* MeteredLoopback::handler_span(NodeId id) const {
  const auto it = roles_.find(id);
  const Role role = it != roles_.end() ? it->second
                    : id >= abdhfl::topology::kVirtualDeviceIdBase ? Role::kDevice
                                                                    : Role::kWorker;
  switch (role) {
    case Role::kRoot: return "bench.root";
    case Role::kMid: return "bench.mid";
    case Role::kLeafHead: return "bench.leaf_head";
    case Role::kDevice: return "bench.device";
    case Role::kTop:
      return leader_probe_ && leader_probe_(id) ? "bench.leader" : "bench.follower";
    case Role::kWorker: return "bench.worker";
  }
  return "bench.worker";
}

void MeteredLoopback::register_node(NodeId id, MessageHandler handler) {
  LoopbackTransport::register_node(
      id, [this, id, inner = std::move(handler)](net::WireMessage& msg) {
        if (kill_pending_) kill_now();
        // A killed process receives nothing more.  Frames it handed to the
        // transport before dying still arrive, as bytes already written to a
        // socket do.
        if (id == dead_) return;
        abdhfl::obs::TraceBuffer* sink = trace_sink();
        abdhfl::obs::Span span(sink, sink != nullptr ? handler_span(id) : "",
                               static_cast<std::size_t>(msg.env.round), id);
        inner(msg);
      });
}

net::SendStatus MeteredLoopback::send(const net::Envelope& env, const net::Payload& payload,
                                      std::uint32_t link_class) {
  if (dead_ != kNoNode && (env.from == dead_ || env.to == dead_)) {
    return net::SendStatus::kPeerLost;
  }
  abdhfl::obs::TraceBuffer* sink = trace_sink();
  abdhfl::obs::Span span(sink, "bench.send", static_cast<std::size_t>(env.round), env.to);
  if (const auto* partial = std::get_if<net::PartialModel>(&payload);
      partial != nullptr && partial->is_global && env.round == round_ends_.size() &&
      is_tree_top(env.from)) {
    round_ends_.push_back(net::hier::wall_now());
    if (kill_armed_ && env.round == kill_round_) {
      kill_armed_ = false;
      kill_pending_ = true;
      pending_victim_ = env.from;
    }
  }
  const std::uint64_t sent_before = stats().bytes_sent;
  const net::SendStatus status = LoopbackTransport::send(env, payload, link_class);
  if (status == net::SendStatus::kOk) {
    ++frames_by_kind_[payload.index()];
    bytes_by_kind_[payload.index()] += stats().bytes_sent - sent_before;
  }
  if (sink != nullptr) {
    backlog_max_ = std::max(backlog_max_, stats().bytes_sent - stats().bytes_received);
  }
  return status;
}

std::size_t MeteredLoopback::poll(double timeout_s) {
  abdhfl::obs::Span span(trace_sink(), "bench.poll");
  const std::size_t delivered = LoopbackTransport::poll(timeout_s);
  if (kill_pending_) kill_now();
  return delivered;
}

void MeteredLoopback::kill_now() {
  kill_pending_ = false;
  dead_ = pending_victim_;
  kill_time_ = net::hier::wall_now();
  note_peer_loss(dead_);
}

}  // namespace fedbench
