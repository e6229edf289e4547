#include "net/transport.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/blackbox.hpp"
#include "obs/metrics.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"

namespace abdhfl::net {

const char* to_string(SendStatus status) noexcept {
  switch (status) {
    case SendStatus::kOk: return "ok";
    case SendStatus::kNoRoute: return "no_route";
    case SendStatus::kTimeout: return "timeout";
    case SendStatus::kPeerLost: return "peer_lost";
  }
  return "unknown";
}

double RetryPolicy::backoff_for(std::size_t retry) const noexcept {
  const double backoff =
      initial_backoff_s * std::pow(backoff_factor, static_cast<double>(retry));
  return std::min(backoff, max_backoff_s);
}

Transport::Transport(std::string name) : name_(std::move(name)) {}

Codec Transport::codec_for(NodeId self, NodeId peer) const {
  const auto it = peer_codec_.find({self, peer});
  return it == peer_codec_.end() ? Codec{} : it->second;
}

void Transport::reset_codec_state(NodeId peer) {
  const auto touches = [peer](const auto& entry) {
    return entry.first.first == peer || entry.first.second == peer;
  };
  std::erase_if(tx_state_, touches);
  std::erase_if(rx_state_, touches);
}

TransportStats Transport::class_stats(std::uint32_t link_class) const {
  const auto it = per_class_.find(link_class);
  return it == per_class_.end() ? TransportStats{} : it->second;
}

Transport::ObsCounters& Transport::obs_counters() {
  if (!obs_ready_) {
    const std::string label = "{transport=\"" + name_ + "\"}";
    auto& registry = obs::global_registry();
    obs_counters_.frames_sent =
        &registry.counter("net_frames_sent_total" + label, "Frames handed to the backend");
    obs_counters_.bytes_sent =
        &registry.counter("net_bytes_sent_total" + label, "Encoded bytes sent");
    obs_counters_.bytes_sent_raw = &registry.counter(
        "net_bytes_sent_raw_total" + label, "Dense-equivalent bytes of sent frames");
    obs_counters_.frames_received =
        &registry.counter("net_frames_received_total" + label, "Frames decoded and delivered");
    obs_counters_.bytes_received =
        &registry.counter("net_bytes_received_total" + label, "Encoded bytes received");
    obs_counters_.bytes_received_raw =
        &registry.counter("net_bytes_received_raw_total" + label,
                          "Dense-equivalent bytes of received frames");
    obs_counters_.retries =
        &registry.counter("net_retries_total" + label, "Send/connect re-attempts");
    obs_counters_.timeouts =
        &registry.counter("net_timeouts_total" + label, "Sends abandoned on the deadline");
    obs_counters_.peer_losses =
        &registry.counter("net_peer_losses_total" + label, "Links declared dead");
    obs_ready_ = true;
  }
  return obs_counters_;
}

bool Transport::tracing_to(NodeId peer) const noexcept {
  if (!tracing_ || trace_ == nullptr) return false;
  const auto it = peer_tracing_.find(peer);
  return it != peer_tracing_.end() && it->second;
}

void Transport::note_rtt(NodeId peer, std::uint32_t link_class, double rtt_ms,
                         double clock_offset_ns) {
  LinkTelemetry& link = link_telemetry_[peer];
  link.rtt_ms = rtt_ms;
  link.clock_offset_ns = clock_offset_ns;
  ++link.rtt_samples;
  auto& cls = per_class_[link_class];
  cls.rtt_ms = rtt_ms;
  ++cls.rtt_samples;
  cls.rtt_ms_mean += (rtt_ms - cls.rtt_ms_mean) / static_cast<double>(cls.rtt_samples);
  stats_.rtt_ms = rtt_ms;
  ++stats_.rtt_samples;
  stats_.rtt_ms_mean +=
      (rtt_ms - stats_.rtt_ms_mean) / static_cast<double>(stats_.rtt_samples);
  if (obs::enabled()) {
    obs::global_registry()
        .histogram("net_rtt_ms{transport=\"" + name_ + "\"}",
                   obs::exponential_bounds(0.05, 2.0, 16),
                   "Echoed-timestamp RTT estimates per link")
        .observe(rtt_ms);
  }
}

LinkTelemetry Transport::peer_telemetry(NodeId peer) const {
  const auto it = link_telemetry_.find(peer);
  return it == link_telemetry_.end() ? LinkTelemetry{} : it->second;
}

void Transport::note_sent(std::size_t bytes, std::size_t raw_bytes,
                          std::uint32_t link_class, NodeId peer) {
  ++stats_.frames_sent;
  stats_.bytes_sent += bytes;
  stats_.bytes_sent_raw += raw_bytes;
  auto& cls = per_class_[link_class];
  ++cls.frames_sent;
  cls.bytes_sent += bytes;
  cls.bytes_sent_raw += raw_bytes;
  auto& link = link_telemetry_[peer];
  ++link.frames_sent;
  link.bytes_sent += bytes;
  if (obs::enabled()) {
    auto& counters = obs_counters();
    counters.frames_sent->add(1);
    counters.bytes_sent->add(bytes);
    counters.bytes_sent_raw->add(raw_bytes);
  }
}

void Transport::note_received(std::size_t bytes, std::size_t raw_bytes,
                              std::uint32_t link_class, NodeId peer) {
  ++stats_.frames_received;
  stats_.bytes_received += bytes;
  stats_.bytes_received_raw += raw_bytes;
  auto& cls = per_class_[link_class];
  ++cls.frames_received;
  cls.bytes_received += bytes;
  cls.bytes_received_raw += raw_bytes;
  auto& link = link_telemetry_[peer];
  ++link.frames_received;
  link.bytes_received += bytes;
  if (obs::enabled()) {
    auto& counters = obs_counters();
    counters.frames_received->add(1);
    counters.bytes_received->add(bytes);
    counters.bytes_received_raw->add(raw_bytes);
  }
}

void Transport::note_retry() {
  ++stats_.retries;
  if (obs::enabled()) obs_counters().retries->add(1);
}

void Transport::note_reconnect() { ++stats_.reconnects; }

void Transport::note_timeout() {
  ++stats_.timeouts;
  if (obs::enabled()) obs_counters().timeouts->add(1);
}

void Transport::note_peer_loss(NodeId peer) {
  ++stats_.peer_losses;
  if (obs::enabled()) obs_counters().peer_losses->add(1);
  if (trace_) {
    trace_->push({trace_->seconds_since_epoch(), 0, "net_peer_loss", peer, 0, 0.0, 0});
  }
  for (const auto& handler : on_peer_loss_) handler(peer);
}

void Transport::note_peer_reconnect(NodeId peer) {
  ++stats_.reconnects;
  if (trace_) {
    trace_->push({trace_->seconds_since_epoch(), 0, "net_peer_reconnect", peer, 0, 0.0, 0});
  }
  for (const auto& handler : on_peer_reconnect_) handler(peer);
}

void Transport::note_decode_error() { ++stats_.decode_errors; }

void Transport::deliver_frame(const FrameView& view, std::uint32_t link_class,
                              const MessageHandler& handler) {
  const Envelope env = view.env();
  const std::size_t wire_bytes = view.bytes().size();
  obs::blackbox::record(obs::blackbox::EventType::kFrameRx,
                        static_cast<std::uint16_t>(view.kind()), env.to, env.round,
                        env.from, wire_bytes);

  // The whole dispatch — decode + handler — runs inside a net_recv span.
  // When the frame carries a trace tail, the span parents to the remote
  // sender's net_send span: the causal cross-process edge every
  // handler-opened span then nests under via the thread-local stack.
  std::optional<obs::Span> recv_span;
  if (trace_ != nullptr) {
    obs::SpanContext ctx;
    if (view.traced()) {
      const TraceContext tc = view.trace_context();
      ctx.trace_id = tc.trace_id;
      ctx.parent_span_id = tc.span_id;
      ctx.has_parent = true;
    }
    recv_span.emplace(trace_, "net_recv", ctx, static_cast<std::size_t>(env.round),
                      env.to);
  }

  CodecState* rx = nullptr;
  const MsgKind kind = view.kind();
  if ((kind == MsgKind::kModelUpdate || kind == MsgKind::kPartialModel) &&
      codec_for(env.to, env.from).delta) {
    rx = &rx_codec_state(env.from, env.to);
  }
  WireMessage msg = view.decode(rx);
  note_received(wire_bytes, encoded_size(msg.payload), link_class, env.from);
  if (handler) handler(msg);
}

void Transport::record_traffic(obs::Recorder& recorder, std::uint64_t round) const {
  for (const auto& [link_class, s] : per_class_) {
    obs::RoundRecord& rec =
        recorder.begin_round("net_link", static_cast<std::size_t>(round));
    rec.set("link_class", static_cast<double>(link_class));
    rec.set("frames_sent", static_cast<double>(s.frames_sent));
    rec.set("bytes_sent", static_cast<double>(s.bytes_sent));
    rec.set("bytes_sent_raw", static_cast<double>(s.bytes_sent_raw));
    rec.set("frames_received", static_cast<double>(s.frames_received));
    rec.set("bytes_received", static_cast<double>(s.bytes_received));
    rec.set("bytes_received_raw", static_cast<double>(s.bytes_received_raw));
    rec.set("rtt_ms", s.rtt_ms);
    rec.set("rtt_ms_mean", s.rtt_ms_mean);
    rec.set("rtt_samples", static_cast<double>(s.rtt_samples));
    rec.set("queue_depth", static_cast<double>(backlog_bytes(link_class)));
    if (has_identity_) {
      rec.set("level", static_cast<double>(identity_level_));
      rec.set("parent_id", static_cast<double>(identity_parent_));
    }
  }
  obs::RoundRecord& ev = recorder.begin_round("net_events", static_cast<std::size_t>(round));
  ev.set("retries", static_cast<double>(stats_.retries));
  ev.set("reconnects", static_cast<double>(stats_.reconnects));
  ev.set("timeouts", static_cast<double>(stats_.timeouts));
  ev.set("peer_losses", static_cast<double>(stats_.peer_losses));
  ev.set("decode_errors", static_cast<double>(stats_.decode_errors));
  if (has_identity_) {
    ev.set("level", static_cast<double>(identity_level_));
    ev.set("parent_id", static_cast<double>(identity_parent_));
  }
}

}  // namespace abdhfl::net
