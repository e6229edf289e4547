#include "net/hier/aggregator.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "ckpt/state.hpp"
#include "ckpt/store.hpp"
#include "obs/blackbox.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"

namespace abdhfl::net::hier {

namespace bb = obs::blackbox;

namespace {

topology::HierSpec parse_spec_or_throw(const std::string& tree) {
  topology::HierSpec spec;
  if (tree.empty() || !topology::parse_tree_spec(tree, spec)) {
    throw std::invalid_argument("AggregatorNode: invalid tree spec '" + tree + "'");
  }
  return spec;
}

Collector::Options collector_opts(const FederationConfig& config,
                                  const topology::HierSpec& spec,
                                  const topology::HierPlan& plan, NodeId id,
                                  std::size_t level, bool leaf) {
  Collector::Options opts;
  opts.self = id;
  opts.expected_children = leaf ? spec.devices_per_leaf() : plan.children_of(id);
  opts.first_child = leaf ? topology::device_node_id(plan.first_device_of(id))
                          : plan.first_child_of(id);
  opts.link_class = static_cast<std::uint32_t>(level + 1);
  opts.codec = codec_from_config(config);
  opts.trace = config.trace;
  opts.rejoin_grace_s = config.rejoin_grace_s;
  return opts;
}

Uplink::Options uplink_opts(const FederationConfig& config,
                            const topology::HierPlan& plan, NodeId id,
                            NodeId parent, std::size_t level) {
  Uplink::Options opts;
  opts.self = id;
  opts.parent = parent;
  opts.cluster = id - plan.first_child_of(parent);
  opts.link_class = static_cast<std::uint32_t>(level);
  opts.level = static_cast<std::uint32_t>(level);
  opts.codec = codec_from_config(config);
  opts.trace = config.trace;
  return opts;
}

}  // namespace

AggregatorNode::AggregatorNode(FederationConfig config, std::size_t level,
                               std::size_t index, Transport& up, Transport& down,
                               obs::Recorder* recorder, ckpt::Store* checkpoint,
                               std::size_t checkpoint_every, bool resume)
    : config_(std::move(config)),
      spec_(parse_spec_or_throw(config_.tree)),
      plan_(spec_),
      level_(level),
      index_(index),
      id_(plan_.node_id(level, index)),
      parent_(plan_.parent_of(id_)),
      up_(up),
      down_(down),
      recorder_(recorder),
      checkpoint_(checkpoint),
      checkpoint_every_(checkpoint_every),
      data_(build_federation_data(config_)),
      rule_(agg::make_aggregator(config_.cluster_rule)),
      collector_(down, collector_opts(config_, spec_, plan_, id_, level_,
                                      level == spec_.process_levels() - 1)),
      uplink_(up, uplink_opts(config_, plan_, id_, parent_, level_)),
      child_link_class_(static_cast<std::uint32_t>(level_ + 1)),
      down_model_(data_.init_params) {
  if (level_ == 0 || level_ >= spec_.process_levels()) {
    throw std::invalid_argument("AggregatorNode: level must be interior (1..L-1)");
  }
  if (level_ == spec_.process_levels() - 1) {
    host_ = std::make_unique<VirtualDeviceHost>(config_, data_, id_,
                                                plan_.first_device_of(id_),
                                                spec_.devices_per_leaf(), down_,
                                                child_link_class_);
  }
  if (checkpoint_ != nullptr && resume) restore_checkpoint();

  down_.register_node(id_, [this](WireMessage& msg) { on_message(msg); });
  down_.add_peer_loss_handler([this](NodeId peer) {
    if (peer == parent_ && &up_ == &down_) on_up_peer_loss(peer);
    else on_down_peer_loss(peer);
  });
  down_.add_peer_reconnect_handler([this](NodeId peer) { on_peer_reconnect(peer); });
  if (&up_ != &down_) {
    up_.register_node(id_, [this](WireMessage& msg) { on_message(msg); });
    up_.add_peer_loss_handler([this](NodeId peer) {
      if (peer == parent_) on_up_peer_loss(peer);
    });
  }
  // Stamp this node's place in the tree onto its telemetry records
  // (net_link/net_events gain level/parent_id — validate_jsonl's optional
  // keys).
  up_.set_identity(static_cast<std::uint32_t>(level_), parent_);
  if (&up_ != &down_) down_.set_identity(static_cast<std::uint32_t>(level_), parent_);
  if (config_.trace) {
    up_.set_tracing(true);
    if (&up_ != &down_) down_.set_tracing(true);
  }
}

void AggregatorNode::start() {
  phase_deadline_ = wall_now() + config_.join_timeout_s;
  bb::set_phase(0, round_, deadline_ns(phase_deadline_));  // joining
  bb::record(bb::EventType::kPhase, 0, id_, round_);
  if (host_ != nullptr) host_->start();
}

void AggregatorNode::on_idle() {
  if (phase_ == Phase::kDone) return;
  const double now = wall_now();
  if (parent_lost_ && now >= next_rejoin_) {
    // The parent may be a restarting process listening on the same address:
    // keep knocking.  revive_peer redials the link the loss path closed for
    // good; a failure just reschedules the retry.
    next_rejoin_ = now + kRejoinRetryS;
    if (up_.revive_peer(parent_)) {
      uplink_.send_join(collector_.total_subtree_samples());
    }
  }
  // A grace window expiring releases the aggregation hold; the quorum may
  // already be complete (or gone entirely).
  if (phase_ == Phase::kTraining && collector_.expire_grace(now)) {
    if (collector_.live().empty() && !collector_.grace_pending()) {
      finish(/*failed=*/true);
      return;
    }
    maybe_forward_up();
    if (phase_ == Phase::kDone) return;
  }
  if (now < phase_deadline_) return;
  if (phase_ == Phase::kJoining) {
    // Join deadline: vouch for whoever showed up (the subtree runs
    // degraded); nobody at all means nothing to aggregate.
    if (collector_.live().empty()) {
      finish(/*failed=*/true);
      return;
    }
    if (uplink_.send_join(collector_.total_subtree_samples()) != SendStatus::kOk) {
      note_parent_lost();
    }
    phase_deadline_ = now + config_.round_timeout_s;
    return;
  }
  if (phase_ == Phase::kTraining) {
    // Round deadline: children that never delivered are treated as lost.
    const std::set<NodeId> live = collector_.live();
    for (const NodeId child : live) {
      if (!collector_.has_update(child)) on_down_peer_loss(child);
    }
    return;
  }
  if (phase_ == Phase::kFinishing) {
    uplink_.send_leave(round_);  // stragglers' loss: say goodbye regardless
    finish(/*failed=*/false);
  }
}

void AggregatorNode::on_message(WireMessage& msg) {
  // Introspection first — a probe must never perturb the protocol state.
  if (msg.kind == MsgKind::kStatusRequest) {
    reply_status(std::get<StatusRequest>(msg.payload), msg.env.from);
    return;
  }
  if (msg.kind == MsgKind::kStatusReply) {
    uplink_.on_status_reply(msg);
    return;
  }
  if (phase_ == Phase::kDone) return;
  if (msg.env.from == parent_) {
    on_parent_message(msg);
  } else {
    on_child_message(msg);
  }
}

void AggregatorNode::on_parent_message(WireMessage& msg) {
  if (msg.kind == MsgKind::kMembership) {
    const auto& member = std::get<Membership>(msg.payload);
    if (member.event == Membership::Event::kJoin) {
      parent_lost_ = false;
      switch (uplink_.on_join_echo(msg, round_)) {
        case Uplink::EchoAction::kStart:
        case Uplink::EchoAction::kResync:
          // The starting gun (or a resync after the parent re-admitted us):
          // adopt the round the parent is collecting and restart the
          // subtree's round on that clock.
          round_ = static_cast<std::size_t>(msg.env.round);
          begin_round_down();
          break;
        case Uplink::EchoAction::kResend:
        case Uplink::EchoAction::kNone:
          // Our own round echoed back — a restarted parent that lost the
          // update we sent its predecessor, or (kResend) a NEW parent that
          // took over the same round.  Resend the cached fold, but ONLY if
          // we folded this round already; retraining here would advance the
          // device RNG streams a second time and break bitwise
          // reproducibility.  (An unfinished collection delivers through
          // maybe_forward_up as usual.)
          if (last_sent_round_ == round_) {
            uplink_.send_update(last_sent_, collector_.total_subtree_samples(),
                                round_);
          }
          break;
      }
    } else if (member.event == Membership::Event::kShutdown) {
      // Coordinator abort: propagate down and stop.
      shutdown_children();
      finish(/*failed=*/false);
    }
    return;
  }
  if (msg.kind == MsgKind::kPartialModel) {
    auto& partial = std::get<PartialModel>(msg.payload);
    if (msg.env.round != round_) return;  // stale frame from a dropped round
    if (host_ != nullptr) {
      // Leaf head: the 2-level worker's Eq.-1 merge against our latest fold.
      obs::Span merge_span(up_.trace_sink(), "merge", round_, id_);
      merge_models_into(partial.params, last_sent_, partial.alpha, down_model_);
    } else {
      // Mid-level: forward the broadcast down unchanged, then keep the
      // global as the next round's fold reference.  The payload is reused
      // verbatim — children at round_ accept it by envelope round.
      collector_.fan_out(msg.payload, round_);
      down_model_ = std::move(partial.params);
    }
    ++round_;
    bb::record(bb::EventType::kRound, 0, id_, round_ - 1);
    bb::note_progress(round_);
    bb::set_peer(parent_, 0, round_);
    if (checkpoint_ != nullptr &&
        (round_ % std::max<std::size_t>(checkpoint_every_, 1) == 0 ||
         round_ >= config_.rounds)) {
      save_checkpoint();
    }
    if (round_ >= config_.rounds) {
      if (host_ != nullptr) {
        // The subtree is one process: say goodbye up, retire the devices.
        uplink_.send_leave(round_);
        shutdown_children();
        finish(/*failed=*/false);
      } else {
        // Await the children's leaves before saying goodbye ourselves, so
        // no socket closes under a frame still in flight.
        phase_ = Phase::kFinishing;
        phase_deadline_ = wall_now() + config_.round_timeout_s;
        bb::record(bb::EventType::kPhase, 2, id_, round_);
        bb::set_phase(2, round_, deadline_ns(phase_deadline_));
        maybe_finish();
      }
    } else {
      uplink_.send_status_ping(round_);  // refresh RTT/offset on live traffic
      collector_.arm();
      phase_deadline_ = wall_now() + config_.round_timeout_s;
      if (host_ != nullptr) disseminate_to_devices();
    }
  }
}

void AggregatorNode::on_child_message(WireMessage& msg) {
  if (msg.kind == MsgKind::kMembership) {
    const auto& member = std::get<Membership>(msg.payload);
    if (member.event == Membership::Event::kJoin && phase_ == Phase::kJoining) {
      if (collector_.on_join(msg.env.from, member, round_)) {
        // Every expected child joined: vouch for the complete subtree.
        if (uplink_.send_join(collector_.total_subtree_samples()) !=
            SendStatus::kOk) {
          note_parent_lost();
        }
        phase_deadline_ = wall_now() + config_.round_timeout_s;
      }
    } else if (member.event == Membership::Event::kJoin &&
               phase_ == Phase::kTraining) {
      // A child (re)joining mid-training — typically its subtree knocking on
      // a restarted process whose parent already resynced it into round_
      // before any child came back.  Admit it and echo immediately: the echo
      // round tells the child which quorum to land its next update in, and a
      // round-matching echo makes it resend its cached fold, not retrain.
      collector_.on_join(msg.env.from, member, round_);
      collector_.echo_join(msg.env.from, round_);
    } else if (member.event == Membership::Event::kLeave) {
      collector_.on_leave(msg.env.from, round_);
      maybe_finish();
    }
    return;
  }
  if (msg.kind == MsgKind::kModelUpdate) {
    if (phase_ != Phase::kTraining) return;
    auto& update = std::get<ModelUpdate>(msg.payload);
    if (collector_.accept_update(msg.env, update, round_, data_.init_params.size())) {
      maybe_forward_up();
    }
  }
}

void AggregatorNode::begin_round_down() {
  phase_ = Phase::kTraining;
  collector_.arm();
  phase_deadline_ = wall_now() + config_.round_timeout_s;
  bb::record(bb::EventType::kPhase, 1, id_, round_, collector_.live().size());
  bb::set_phase(1, round_, deadline_ns(phase_deadline_));
  if (host_ != nullptr) {
    disseminate_to_devices();
  } else {
    // Propagate the starting gun: echo the children's joins with our round.
    collector_.echo_joins(round_);
  }
}

void AggregatorNode::disseminate_to_devices() {
  // Broadcast the model the devices train from this round, without staging
  // a copy per send: the payload borrows down_model_ for the fan-out.
  Payload payload(std::in_place_type<PartialModel>);
  auto& partial = std::get<PartialModel>(payload);
  partial.origin = id_;
  partial.flag_level = static_cast<std::uint32_t>(level_);
  partial.is_global = false;  // the leaf head's merged model, not the global
  partial.alpha = static_cast<float>(config_.alpha);
  partial.flag_fraction = 1.0;
  partial.params = std::move(down_model_);
  collector_.fan_out(payload, round_);
  down_model_ = std::move(partial.params);
}

void AggregatorNode::shutdown_children() {
  Payload bye(std::in_place_type<Membership>);
  std::get<Membership>(bye).event = Membership::Event::kShutdown;
  std::get<Membership>(bye).device = id_;
  collector_.fan_out(bye, round_);
}

void AggregatorNode::maybe_forward_up() {
  if (phase_ != Phase::kTraining || !collector_.quorum_complete(wall_now())) return;
  std::size_t n_inputs = 0;
  {
    // Round-root span, explicitly parentless with the round's own trace id
    // (the WorkerNode::train_and_send pattern): this runs while dispatching
    // a child's frame, and that frame's chain reaches back through the
    // untraced join kickoff — stack parenting would pin the whole subtree
    // fold to trace 0 and orphan the parent's net_recv.  The uplink send
    // stays inside the span so the cross-process edge carries this trace.
    obs::TraceBuffer* sink = up_.trace_sink();
    const std::uint64_t trace_id = obs::make_trace_id(config_.seed, round_);
    if (sink != nullptr) sink->set_trace_id(trace_id);
    obs::Span fold_span(sink, "subtree_agg", obs::SpanContext{trace_id, 0, true},
                        round_, id_);
    last_sent_ = collector_.finish(*rule_, down_model_, n_inputs);
    last_sent_round_ = round_;
    record_round(static_cast<double>(n_inputs));
    if (uplink_.send_update(last_sent_, collector_.total_subtree_samples(), round_) !=
        SendStatus::kOk) {
      note_parent_lost();
    }
  }
}

void AggregatorNode::maybe_finish() {
  // Every child said goodbye (a leave takes it out of the live set).
  if (phase_ != Phase::kFinishing || !collector_.live().empty()) return;
  uplink_.send_leave(round_);
  finish(/*failed=*/false);
}

void AggregatorNode::finish(bool failed) {
  phase_ = Phase::kDone;
  failed_ = failed;
  bb::record(bb::EventType::kPhase, 3, id_, round_, failed ? 1 : 0);
  bb::set_phase(3, round_);
}

void AggregatorNode::note_parent_lost() {
  if (parent_lost_) return;
  parent_lost_ = true;
  next_rejoin_ = wall_now();  // first retry on the next idle tick
  bb::set_peer(parent_, 1, round_);
}

void AggregatorNode::on_down_peer_loss(NodeId peer) {
  if (phase_ == Phase::kDone) return;
  if (!collector_.evict(peer, round_, wall_now())) return;
  if (recorder_ != nullptr) {
    obs::RoundRecord& rec = recorder_->begin_round("dist_churn", round_);
    rec.set("worker", static_cast<double>(peer));
    rec.set("live_workers", static_cast<double>(collector_.live().size()));
  }
  if (phase_ == Phase::kTraining) {
    if (collector_.live().empty() && !collector_.grace_pending()) {
      finish(/*failed=*/true);
    } else {
      maybe_forward_up();
    }
  } else if (phase_ == Phase::kFinishing) {
    maybe_finish();
  }
}

void AggregatorNode::on_up_peer_loss(NodeId peer) {
  if (peer != parent_ || phase_ == Phase::kDone) return;
  // Survivable: keep serving the subtree and knock until the parent —
  // possibly a restarted process — answers (see on_idle).
  note_parent_lost();
}

void AggregatorNode::on_peer_reconnect(NodeId peer) {
  if (phase_ != Phase::kTraining || peer == parent_) return;
  if (!collector_.readmit(peer, round_)) return;
  if (recorder_ != nullptr) {
    obs::RoundRecord& rec = recorder_->begin_round("dist_rejoin", round_);
    rec.set("worker", static_cast<double>(peer));
    rec.set("live_workers", static_cast<double>(collector_.live().size()));
  }
}

void AggregatorNode::reply_status(const StatusRequest& request, NodeId to) {
  const bool upward = to == parent_ || is_observer(to);
  Transport& via = upward ? up_ : down_;
  if (is_observer(to)) via.mark_transient(to);
  StatusReply reply;
  reply.node = id_;
  reply.probe = request.probe;
  reply.round = round_;
  reply.phase = static_cast<std::uint8_t>(phase_);
  reply.live_workers = static_cast<std::uint32_t>(collector_.live().size());
  reply.level = static_cast<std::uint32_t>(level_);
  reply.parent = parent_;
  reply.wall_ns = obs::wall_clock_ns();
  reply.echo_wall_ns = request.wall_ns;
  // First row: the parent link (the probe renders its RTT); then the child
  // table the collector keeps.
  StatusPeer up_row;
  up_row.node = parent_;
  up_row.state = parent_lost_ ? 1 : 0;
  const LinkTelemetry link = up_.peer_telemetry(parent_);
  up_row.rtt_ms = static_cast<float>(link.rtt_ms);
  up_row.bytes_sent = link.bytes_sent;
  up_row.bytes_received = link.bytes_received;
  reply.peers.push_back(up_row);
  collector_.append_status_peers(reply);
  if (request.detail != 0 && obs::enabled()) {
    reply.metrics = obs::to_prometheus(obs::global_registry().scrape());
  }
  via.send({id_, to, round_},
           reply, upward ? static_cast<std::uint32_t>(level_) : child_link_class_);
}

void AggregatorNode::record_round(double inputs) {
  if (recorder_ == nullptr) return;
  obs::RoundRecord& rec = recorder_->begin_round("dist_hier", round_);
  rec.set("node", static_cast<double>(id_));
  rec.set("level", static_cast<double>(level_));
  rec.set("parent_id", static_cast<double>(parent_));
  rec.set("live_children", static_cast<double>(collector_.live().size()));
  rec.set("inputs", inputs);
}

void AggregatorNode::save_checkpoint() {
  // Taken right after a merge/forward: down_model_ is the model the next
  // round disseminates, round_ already points at that round.  save_now —
  // the mid-tier kill test SIGKILLs exactly this process.
  ckpt::Container c;
  c.producer = "aggregator";
  c.round = round_ - 1;
  {
    ckpt::PayloadWriter w;
    w.f32vec(down_model_);
    c.chunks.push_back({ckpt::kTagParams, w.take()});
  }
  {
    ckpt::PayloadWriter w;
    w.u64(id_);
    w.u64(static_cast<std::uint64_t>(level_));
    w.u64(last_sent_round_ == kNeverSent
              ? ~std::uint64_t{0}
              : static_cast<std::uint64_t>(last_sent_round_));
    w.f32vec(last_sent_);
    c.chunks.push_back({ckpt::kTagExtra, w.take()});
  }
  if (host_ != nullptr) {
    c.chunks.push_back(
        {ckpt::kTagRngStates, ckpt::encode_rng_states(host_->rng_states())});
    ckpt::PayloadWriter w;
    w.f64vec(host_->losses());
    c.chunks.push_back({ckpt::kTagLosses, w.take()});
  }
  checkpoint_->save_now(c.round, ckpt::encode_container(c));
}

void AggregatorNode::restore_checkpoint() {
  auto snap = checkpoint_->load_latest();
  if (!snap.has_value()) return;  // nothing yet: fresh start
  if (snap->producer != "aggregator") {
    throw ckpt::CkptError("checkpoint produced by \"" + snap->producer +
                          "\", expected \"aggregator\"");
  }
  {
    ckpt::PayloadReader r(snap->require(ckpt::kTagParams).payload);
    auto params = r.f32vec();
    r.expect_done();
    if (params.size() != down_model_.size()) {
      throw ckpt::CkptError("PARM chunk dimension mismatch: resume with the "
                            "same federation configuration");
    }
    down_model_ = std::move(params);
  }
  {
    ckpt::PayloadReader r(snap->require(ckpt::kTagExtra).payload);
    const auto saved_id = static_cast<NodeId>(r.u64());
    if (saved_id != id_) {
      throw ckpt::CkptError("snapshot belongs to node " + std::to_string(saved_id));
    }
    const auto saved_level = static_cast<std::size_t>(r.u64());
    if (saved_level != level_) {
      throw ckpt::CkptError("snapshot belongs to level " +
                            std::to_string(saved_level));
    }
    const std::uint64_t sent_round = r.u64();
    last_sent_round_ = sent_round == ~std::uint64_t{0}
                           ? kNeverSent
                           : static_cast<std::size_t>(sent_round);
    last_sent_ = r.f32vec();
    r.expect_done();
  }
  if (host_ != nullptr) {
    host_->set_rng_states(
        ckpt::decode_rng_states(snap->require(ckpt::kTagRngStates).payload));
    ckpt::PayloadReader r(snap->require(ckpt::kTagLosses).payload);
    host_->set_losses(r.f64vec());
    r.expect_done();
  }
  round_ = static_cast<std::size_t>(snap->round) + 1;
  resume_round_ = round_;
  if (recorder_ != nullptr) {
    obs::RoundRecord& rec = recorder_->begin_round("dist_resume", round_);
    rec.set("worker", static_cast<double>(id_));
  }
}

}  // namespace abdhfl::net::hier
