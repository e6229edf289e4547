#include "net/hier/roles.hpp"

#include <utility>

#include "obs/blackbox.hpp"

namespace abdhfl::net::hier {

namespace bb = obs::blackbox;

EchoEstimate estimate_from_echo(std::int64_t echoed_t0, std::int64_t remote_t1) {
  const std::int64_t t3 = obs::wall_clock_ns();
  EchoEstimate est;
  est.rtt_ms = static_cast<double>(t3 - echoed_t0) / 1e6;
  est.offset_ns = static_cast<double>(remote_t1) -
                  (static_cast<double>(echoed_t0) + static_cast<double>(t3)) / 2.0;
  return est;
}

// ---------------------------------------------------------------------------
// Collector

Collector::Collector(Transport& transport, Options opts)
    : transport_(transport), opts_(opts) {}

bool Collector::on_join(NodeId from, const Membership& member, std::size_t round) {
  live_.insert(from);
  left_.erase(from);
  grace_until_.erase(from);  // back: the round no longer waits for it
  bb::record(bb::EventType::kChurn, static_cast<std::uint16_t>(bb::ChurnKind::kJoin),
             opts_.self, round, from);
  bb::set_peer(from, 0, round);
  subtree_samples_[from] = member.subtree_samples;
  join_wall_ns_[from] = member.wall_ns;
  transport_.set_peer_tracing(from, member.trace && opts_.trace);
  transport_.set_peer_codec(opts_.self, from, negotiate(member.codec));
  return live_.size() >= opts_.expected_children;
}

Codec Collector::negotiate(const Codec& advertised) const noexcept {
  // Delta needs both sides: the rx side must be willing to hold the per-link
  // base cache.
  Codec chosen = advertised;
  chosen.quantize_bits = std::min(chosen.quantize_bits, opts_.codec.quantize_bits);
  chosen.topk = (chosen.topk != 0 && opts_.codec.topk != 0)
                    ? std::min(chosen.topk, opts_.codec.topk)
                    : 0;
  chosen.delta = chosen.delta && opts_.codec.delta;
  return chosen;
}

void Collector::echo_join(NodeId child, std::size_t round) {
  Membership echo;
  echo.event = Membership::Event::kJoin;
  echo.device = opts_.self;
  echo.cluster = child - opts_.first_child;
  echo.codec = transport_.codec_for(opts_.self, child);
  echo.trace = opts_.trace;
  echo.wall_ns = obs::wall_clock_ns();
  echo.echo_wall_ns = join_wall_ns_[child];  // the child's join send stamp
  transport_.send({opts_.self, child, round}, echo, opts_.link_class);
}

void Collector::echo_joins(std::size_t round) {
  // A snapshot: a failed send runs the peer-loss handlers, which may evict.
  const std::vector<NodeId> children(live_.begin(), live_.end());
  for (const NodeId child : children) echo_join(child, round);
}

void Collector::on_leave(NodeId from, std::size_t round) {
  drop(from);
  left_.insert(from);
  transport_.expect_close(from);  // its EOF is not churn
  bb::record(bb::EventType::kChurn, static_cast<std::uint16_t>(bb::ChurnKind::kLeave),
             opts_.self, round, from);
  bb::set_peer(from, 2, round);
}

bool Collector::evict(NodeId peer, std::size_t round, double now) {
  // Not live covers a child that already said goodbye: its EOF is not churn.
  if (live_.find(peer) == live_.end()) return false;
  drop(peer);
  suspicion_[peer] = 0.5 * suspicion_[peer] + 0.5;  // EWMA toward 1 on a loss
  bb::record(bb::EventType::kChurn, static_cast<std::uint16_t>(bb::ChurnKind::kLoss),
             opts_.self, round, peer);
  bb::set_peer(peer, 1, round);
  if (opts_.rejoin_grace_s > 0.0 &&
      subtree_samples_.find(peer) != subtree_samples_.end()) {
    grace_until_[peer] = now + opts_.rejoin_grace_s;
  }
  return true;
}

void Collector::drop(NodeId child) {
  live_.erase(child);
  pending_.erase(child);
}

bool Collector::readmit(NodeId peer, std::size_t round) {
  if (live_.find(peer) != live_.end() || left_.find(peer) != left_.end()) return false;
  if (subtree_samples_.find(peer) == subtree_samples_.end()) return false;
  live_.insert(peer);
  grace_until_.erase(peer);
  bb::record(bb::EventType::kChurn, static_cast<std::uint16_t>(bb::ChurnKind::kRejoin),
             opts_.self, round, peer);
  bb::set_peer(peer, 0, round);
  // The echo round names the quorum the child's next update must land in.
  // It goes out BEFORE the reconnect's buffered frames are delivered, so a
  // retried update among them is accepted and the child does not retrain.
  echo_join(peer, round);
  return true;
}

bool Collector::expire_grace(double now) {
  const std::size_t before = grace_until_.size();
  std::erase_if(grace_until_, [now](const auto& kv) { return kv.second <= now; });
  return grace_until_.size() != before;
}

void Collector::arm() { pending_.clear(); }

bool Collector::accept_update(const Envelope& env, ModelUpdate& update,
                              std::size_t round, std::size_t param_count) {
  if (env.round != round) return false;  // stale retransmission
  if (live_.find(env.from) == live_.end()) return false;
  // A wrong-length update would make the whole fold throw at finish().
  if (update.params.size() != param_count) return false;
  if (has_update(env.from)) return false;  // duplicate: the first update wins
  suspicion_[env.from] *= 0.9;  // delivered on time: decay suspicion
  pending_[env.from] = std::move(update.params);
  return true;
}

bool Collector::has_update(NodeId child) const {
  return pending_.find(child) != pending_.end();
}

bool Collector::quorum_complete(double now) {
  if (live_.empty()) return false;
  // An evicted child inside its grace window holds the round open: its
  // process may come back and land this round's update, which is what keeps
  // a mid-run restart bitwise identical to an uninterrupted run.
  expire_grace(now);
  if (!grace_until_.empty()) return false;
  return pending_.size() >= live_.size();
}

std::vector<float> Collector::finish(agg::Aggregator& rule,
                                     std::span<const float> reference,
                                     std::size_t& n_inputs) {
  // Deterministic input order: pending_ is keyed by node id, and std::map
  // iterates in ascending key order regardless of arrival order.  The
  // vectors are moved, not copied — pending_ is dead after this.
  std::vector<agg::ModelVec> inputs;
  inputs.reserve(pending_.size());
  for (auto& [child, params] : pending_) inputs.push_back(std::move(params));
  n_inputs = inputs.size();
  rule.set_reference(reference);
  std::vector<float> out = rule.aggregate(inputs);
  pending_.clear();
  return out;
}

void Collector::fan_out(Payload& payload, std::uint64_t round) {
  // A snapshot, not the live set itself: a failed send runs the transport's
  // peer-loss handlers synchronously, and the owner's may evict the child.
  const std::vector<NodeId> children(live_.begin(), live_.end());
  auto* ping = std::get_if<StatusRequest>(&payload);
  for (const NodeId child : children) {
    if (ping != nullptr) ping->wall_ns = obs::wall_clock_ns();  // this link's t0
    (void)transport_.send({opts_.self, child, round}, payload, opts_.link_class);
  }
}

std::uint64_t Collector::total_subtree_samples() const {
  std::uint64_t total = 0;
  for (const auto& [child, samples] : subtree_samples_) total += samples;
  return total;
}

void Collector::append_status_peers(StatusReply& reply) const {
  // One row per member that ever joined, live or not — the probe sees churn.
  for (const auto& [child, samples] : subtree_samples_) {
    StatusPeer peer;
    peer.node = child;
    peer.state = live_.count(child) != 0 ? 0 : (left_.count(child) != 0 ? 2 : 1);
    const LinkTelemetry link = transport_.peer_telemetry(child);
    peer.rtt_ms = static_cast<float>(link.rtt_ms);
    const auto sus = suspicion_.find(child);
    peer.suspicion = sus == suspicion_.end() ? 0.0 : sus->second;
    peer.bytes_sent = link.bytes_sent;
    peer.bytes_received = link.bytes_received;
    reply.peers.push_back(peer);
  }
}

// ---------------------------------------------------------------------------
// Uplink

Uplink::Uplink(Transport& transport, Options opts)
    : transport_(transport), opts_(opts) {}

SendStatus Uplink::send_join(std::uint64_t subtree_samples) {
  return send_join_to(opts_.parent, subtree_samples);
}

SendStatus Uplink::send_join_to(NodeId to, std::uint64_t subtree_samples) {
  Membership join;
  join.event = Membership::Event::kJoin;
  join.device = opts_.self;
  join.cluster = opts_.cluster;
  join.subtree_samples = subtree_samples;
  join.codec = opts_.codec;
  join.trace = opts_.trace;             // capability advertisement
  join.wall_ns = obs::wall_clock_ns();  // echoed back for the first RTT sample
  return transport_.send({opts_.self, to, 0}, join, opts_.link_class);
}

Uplink::EchoAction Uplink::on_join_echo(const WireMessage& msg, std::size_t round) {
  const auto& member = std::get<Membership>(msg.payload);
  // A resend is owed when this round's update went to a node other than the
  // one echoing.  Comparing against the parent pointer instead would miss the
  // common failover sequence: the new leader's stale partial retargets the
  // parent BEFORE its join echo arrives, so by echo time the parent already
  // matches — but the update bytes died with the predecessor.
  const bool misdirected = started_ && msg.env.round == round &&
                           last_update_round_ == round &&
                           last_update_to_ != msg.env.from;
  opts_.parent = msg.env.from;  // the echo sender IS the coordinator now
  transport_.set_peer_codec(opts_.self, opts_.parent, member.codec);
  transport_.set_peer_tracing(opts_.parent, member.trace && opts_.trace);
  if (member.echo_wall_ns != 0) {
    // Coarse first estimate from the join echo (inflated by the parent's
    // join-wait; the per-round status pings refine it).
    const EchoEstimate est = estimate_from_echo(member.echo_wall_ns, member.wall_ns);
    transport_.note_rtt(opts_.parent, opts_.link_class, est.rtt_ms, est.offset_ns);
    if (transport_.trace_sink() != nullptr) {
      transport_.trace_sink()->set_clock_offset_ns(
          static_cast<std::int64_t>(est.offset_ns));
    }
  }
  if (!started_) {
    started_ = true;
    return EchoAction::kStart;
  }
  if (misdirected) {
    // Leader change mid-round: the previously trained update must reach the
    // new leader, but retraining would advance the RNG streams and break
    // bitwise identity with the unfailed run — resend, never retrain.
    return EchoAction::kResend;
  }
  if (msg.env.round != round) return EchoAction::kResync;
  return EchoAction::kNone;
}

SendStatus Uplink::send_update(std::vector<float>& params, std::uint64_t samples,
                               std::size_t round) {
  // Build the Payload variant in place and lend `params` to it for the
  // duration of the send — a copy-into-update staging would be a full O(d)
  // copy every round.
  Payload payload(std::in_place_type<ModelUpdate>);
  auto& update = std::get<ModelUpdate>(payload);
  update.sender = opts_.self;
  update.level = opts_.level;
  update.samples = samples;
  update.params = std::move(params);
  const SendStatus status =
      transport_.send({opts_.self, opts_.parent, round}, payload, opts_.link_class);
  params = std::move(update.params);
  // Record the attempt even on failure: the bytes are lost either way, and a
  // successor's echo must still see "this round went elsewhere" to ask for
  // the resend.
  last_update_to_ = opts_.parent;
  last_update_round_ = round;
  return status;
}

SendStatus Uplink::send_leave(std::size_t round) {
  Membership leave;
  leave.event = Membership::Event::kLeave;
  leave.device = opts_.self;
  leave.cluster = opts_.cluster;
  return transport_.send({opts_.self, opts_.parent, round}, leave, opts_.link_class);
}

void Uplink::send_status_ping(std::size_t round) {
  StatusRequest ping;
  ping.probe = ++probe_seq_;
  ping.wall_ns = obs::wall_clock_ns();
  transport_.send({opts_.self, opts_.parent, round}, ping, opts_.link_class);
}

void Uplink::on_status_reply(const WireMessage& msg) {
  const auto& reply = std::get<StatusReply>(msg.payload);
  const EchoEstimate est = estimate_from_echo(reply.echo_wall_ns, reply.wall_ns);
  transport_.note_rtt(msg.env.from, opts_.link_class, est.rtt_ms, est.offset_ns);
  if (msg.env.from == opts_.parent && transport_.trace_sink() != nullptr) {
    // The parent's clock is the federation reference the merge tool aligns
    // to (transitively up to the root).
    transport_.trace_sink()->set_clock_offset_ns(
        static_cast<std::int64_t>(est.offset_ns));
  }
}

}  // namespace abdhfl::net::hier
