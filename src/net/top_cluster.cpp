#include "net/top_cluster.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "ckpt/state.hpp"
#include "ckpt/store.hpp"
#include "core/trainer.hpp"
#include "obs/blackbox.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"
#include "topology/plan.hpp"

namespace abdhfl::net {

namespace bb = obs::blackbox;
namespace rot = consensus::rotation;

using hier::deadline_ns;
using hier::EchoEstimate;
using hier::estimate_from_echo;
using hier::wall_now;

namespace {

/// The committee's member ids: top_node_id(0..N-1), or the classic root's
/// {kRootId} when config.top_cluster == 0.
std::vector<NodeId> committee(const FederationConfig& config) {
  if (config.top_cluster == 0) return {kRootId};
  std::vector<NodeId> members;
  members.reserve(config.top_cluster);
  for (std::size_t t = 0; t < config.top_cluster; ++t) {
    members.push_back(top_node_id(t));
  }
  return members;
}

rot::Config rotation_config(const FederationConfig& config, NodeId self) {
  rot::Config rc;
  rc.self = self;
  rc.members = committee(config);
  rc.seed = config.seed;
  rc.heartbeat_s = config.heartbeat_s;
  rc.election_min_s = config.election_min_s;
  rc.election_max_s = config.election_max_s;
  return rc;
}

/// Joins that complete the join phase: with a tree spec the branching[0]
/// level-1 aggregators, otherwise the workers (initial_workers when set).
std::size_t expected_children(const FederationConfig& config) {
  if (config.tree.empty()) {
    return config.initial_workers != 0 ? config.initial_workers : config.workers;
  }
  topology::HierSpec spec;
  if (!topology::parse_tree_spec(config.tree, spec)) {
    throw std::invalid_argument("invalid tree spec: " + config.tree);
  }
  return spec.branching.front();
}

/// The latest membership entry about `subject` among the log's first `count`
/// entries, restricted to `type` when given; nullptr when there is none.
const RaftLogEntry* latest_membership(const std::vector<RaftLogEntry>& log,
                                      std::uint64_t count, NodeId subject,
                                      std::optional<rot::EntryType> type = std::nullopt) {
  for (std::uint64_t i = count; i >= 1; --i) {
    const RaftLogEntry& entry = log[static_cast<std::size_t>(i) - 1];
    const auto t = static_cast<rot::EntryType>(entry.type);
    const bool membership = t == rot::EntryType::kMemberJoin ||
                            t == rot::EntryType::kMemberLeave ||
                            t == rot::EntryType::kMemberEvict;
    if (membership && entry.subject == subject && (!type || t == *type)) return &entry;
  }
  return nullptr;
}

/// The advertisement a committed join entry admitted: samples plus the link
/// exactly as the committing leader negotiated it.
Membership admission(const RaftLogEntry& entry) {
  Membership member;
  member.event = Membership::Event::kJoin;
  member.subtree_samples = entry.samples;
  member.codec.quantize_bits = entry.quantize_bits;
  member.codec.topk = entry.topk;
  member.codec.delta = entry.delta != 0;
  member.trace = entry.trace != 0;
  return member;
}

}  // namespace

TopClusterNode::TopClusterNode(FederationConfig config, std::size_t top_index,
                               Transport& transport, obs::Recorder* recorder,
                               ckpt::Store* checkpoint, std::size_t checkpoint_every,
                               bool resume)
    : config_(std::move(config)),
      id_(committee(config_).at(top_index)),
      transport_(transport),
      recorder_(recorder),
      checkpoint_(checkpoint),
      checkpoint_every_(checkpoint_every),
      data_(build_federation_data(config_)),
      rule_(agg::make_aggregator(config_.root_rule)),
      raft_(rotation_config(config_, id_)),
      expected_children_(expected_children(config_)),
      collector_(transport, {.self = id_,
                             .first_child = worker_node_id(0),
                             .link_class = kLeaderLinkClass,
                             .codec = codec_from_config(config_),
                             .trace = config_.trace,
                             .rejoin_grace_s = config_.rejoin_grace_s}),
      global_(data_.init_params) {
  if (checkpoint_ != nullptr && config_.top_cluster > 1) {
    throw std::invalid_argument(
        "top cluster: checkpoints are for a committee of one; the log replicates "
        "a larger committee");
  }
  if (checkpoint_ != nullptr && resume) restore_checkpoint();
  raft_.on_commit = [this](const RaftLogEntry& entry) { apply_entry(entry); };
  raft_.on_leader_change = [this](std::uint64_t term, NodeId leader,
                                  rot::ViewReason reason) {
    on_leader_change(term, leader, reason);
  };
  transport_.register_node(id_, [this](WireMessage& msg) { on_message(msg); });
  transport_.add_peer_loss_handler([this](NodeId peer) { on_peer_loss(peer); });
  transport_.add_peer_reconnect_handler(
      [this](NodeId peer) { on_peer_reconnect(peer); });
  if (config_.trace) transport_.set_tracing(true);
}

bool TopClusterNode::join_gate_met(double now) const {
  const std::size_t live = collector_.live().size();
  if (live == 0) return false;
  // Only a member taking over past the join phase resumes at once; a fresh
  // or restored node waits for every expected join or the deadline.
  return phase_ != Phase::kJoining || live >= expected_children_ ||
         now >= join_deadline_;
}

void TopClusterNode::start() {
  const double now = wall_now();
  join_deadline_ = now + config_.join_timeout_s;
  bb::set_phase(0, round_, deadline_ns(join_deadline_));
  bb::record(bb::EventType::kPhase, 0, id_, round_);
  raft_.start(now);
  raft_.tick(now);  // the first tick: a committee of one elects itself here
  flush_raft();
}

void TopClusterNode::flush_raft() {
  for (rot::Outgoing& out : raft_.take_outbox()) {
    (void)transport_.send({id_, out.to, round_}, out.payload, kTopLinkClass);
  }
}

void TopClusterNode::on_idle() {
  if (phase_ == Phase::kDone) return;
  const double now = wall_now();
  raft_.tick(now);
  flush_raft();
  // A grace window expiring releases the collector's aggregation hold; the
  // quorum may already be complete (or gone entirely).
  if (collector_.expire_grace(now)) {
    maybe_wind_down();
    maybe_aggregate();
  }
  if (raft_.is_leader()) {
    // The idle-path takeover (join-timeout expiry, quiet first election) must
    // wait for the log to be FULLY applied: a new leader elected mid-round
    // may still hold its dead predecessor's uncommitted model entry, and
    // resuming the round before that entry applies would re-collect and
    // re-commit the same round against the wrong global — diverging from the
    // replay.  Once commit catches the tail, the kView apply runs the
    // takeover at the right round.  (Loopback never exposes this window —
    // acks drain synchronously; real TCP does.)
    if (!started_training_ && raft_.commit_index() == raft_.last_index() &&
        join_gate_met(now)) {
      start_or_resume_training();
    }
    // Reconcile the committed view against links that died before this
    // member led: a worker whose leave (or eviction) perished with the old
    // leader would otherwise stay "live" forever and hold the shutdown.
    // propose_membership dedups in-flight subjects, so this is idempotent.
    // A snapshot: a committee of one commits (and forgets the loss) inside
    // the proposal.
    const std::set<NodeId> lost = lost_workers_;
    for (const NodeId worker : lost) {
      if (collector_.live().count(worker) != 0 && leaving_.count(worker) == 0) {
        propose_membership(rot::EntryType::kMemberEvict, worker, nullptr);
      }
    }
    if (started_training_ && phase_ != Phase::kJoining && now >= round_deadline_) {
      // Round deadline: live members that never delivered are treated as
      // lost — through the log, so the shrunken view is the agreed one.  In
      // kFinishing that is every straggler that never said goodbye.
      const std::set<NodeId> live = collector_.live();
      for (const NodeId worker : live) {
        if (!collector_.has_update(worker)) {
          propose_membership(rot::EntryType::kMemberEvict, worker, nullptr);
        }
      }
      round_deadline_ = now + config_.round_timeout_s;
    }
    // A leader with nothing to coordinate past the join deadline: nothing
    // will ever run, so don't hang the process.
    if (phase_ == Phase::kJoining && now >= join_deadline_ &&
        collector_.live().empty() && pending_joins_.empty()) {
      finish_now();
      return;
    }
  }
  maybe_finish();
}

void TopClusterNode::on_message(WireMessage& msg) {
  // Introspection first: a probe must work in every state and never advance
  // the protocol.
  if (msg.kind == MsgKind::kStatusRequest) {
    reply_status(std::get<StatusRequest>(msg.payload), msg.env.from);
    return;
  }
  if (msg.kind == MsgKind::kStatusReply) {
    // A child answering the leader's per-round ping.
    const auto& reply = std::get<StatusReply>(msg.payload);
    const EchoEstimate est = estimate_from_echo(reply.echo_wall_ns, reply.wall_ns);
    transport_.note_rtt(msg.env.from, kLeaderLinkClass, est.rtt_ms, est.offset_ns);
    return;
  }
  const double now = wall_now();
  // Consensus traffic is live in every phase, including kDone — a finished
  // member still answers votes so a lagging peer can conclude its term.
  switch (msg.kind) {
    case MsgKind::kVoteRequest:
      raft_.on_vote_request(std::get<VoteRequest>(msg.payload), now);
      flush_raft();
      return;
    case MsgKind::kVoteReply:
      raft_.on_vote_reply(std::get<VoteReply>(msg.payload), now);
      flush_raft();
      return;
    case MsgKind::kAppendEntries:
      raft_.on_append_entries(std::get<AppendEntries>(msg.payload), now);
      flush_raft();
      return;
    case MsgKind::kHeartbeat: {
      const auto& beat = std::get<Heartbeat>(msg.payload);
      if (beat.ack != 0) {
        // Follower progress snoop: what lets the leader hold its own
        // shutdown until the final commit reached every live member.
        std::uint64_t& seen = peer_commit_[beat.node];
        seen = std::max(seen, beat.commit_index);
      }
      raft_.on_heartbeat(beat, now);
      flush_raft();
      maybe_finish();
      return;
    }
    default:
      break;
  }
  if (phase_ == Phase::kDone) return;
  if (msg.kind == MsgKind::kMembership) {
    const auto& member = std::get<Membership>(msg.payload);
    if (member.event == Membership::Event::kJoin) {
      // Workers broadcast their join to EVERY committee member, so any
      // future leader already holds the advertisement.
      pending_joins_[msg.env.from] = member;
      if (raft_.is_leader()) {
        if (collector_.live().count(msg.env.from) != 0) {
          // Already a committed member (a restarted process re-joining the
          // same view): re-echo the committed round directly — once the
          // echo is no longer the join phase's starting gun.
          if (started_training_) collector_.echo_join(msg.env.from, round_);
        } else {
          propose_membership(rot::EntryType::kMemberJoin, msg.env.from, &member);
        }
      }
    } else if (member.event == Membership::Event::kLeave) {
      leaving_.insert(msg.env.from);
      transport_.expect_close(msg.env.from);  // its EOF is not churn
      if (raft_.is_leader() && collector_.live().count(msg.env.from) != 0) {
        propose_membership(rot::EntryType::kMemberLeave, msg.env.from, nullptr);
      }
    }
    return;
  }
  if (msg.kind == MsgKind::kModelUpdate) {
    if (!raft_.is_leader() || phase_ != Phase::kTraining) return;
    auto& update = std::get<ModelUpdate>(msg.payload);
    if (collector_.accept_update(msg.env, update, round_, data_.init_params.size())) {
      maybe_aggregate();
    }
    return;
  }
}

void TopClusterNode::on_peer_loss(NodeId peer) {
  if (phase_ == Phase::kDone && !is_member(peer)) return;
  const double now = wall_now();
  if (is_member(peer)) {
    dead_tops_.insert(peer);
    peer_commit_.erase(peer);
    raft_.on_peer_loss(peer, now);
    flush_raft();
    maybe_finish();
    return;
  }
  if (is_observer(peer)) return;
  // A worker link died.  Remember it regardless of role: the loss can fire
  // at a FOLLOWER (a worker whose leave died with the old leader closes its
  // sockets to everyone), and the transport reports each loss exactly once —
  // by the time this member wins an election the event is gone.  Only the
  // leader turns a loss into an agreed eviction; followers learn it from the
  // log, and a new leader reconciles the set on its idle tick.
  lost_workers_.insert(peer);
  if (raft_.is_leader() && collector_.live().count(peer) != 0 &&
      leaving_.count(peer) == 0) {
    propose_membership(rot::EntryType::kMemberEvict, peer, nullptr);
  }
}

void TopClusterNode::on_peer_reconnect(NodeId peer) {
  // A transient drop the child's send-retry repaired: only a child the log
  // evicted (not one that said goodbye) comes back, and only mid-training.
  // With one member the join commits and the resync echo goes out before
  // the reconnect's buffered frames are delivered.
  if (!raft_.is_leader() || phase_ != Phase::kTraining) return;
  if (collector_.live().count(peer) != 0 || collector_.left().count(peer) != 0) return;
  const auto& log = raft_.log();
  const RaftLogEntry* joined =
      latest_membership(log, log.size(), peer, rot::EntryType::kMemberJoin);
  if (joined == nullptr) return;  // never admitted through this log
  const Membership member = admission(*joined);
  propose_membership(rot::EntryType::kMemberJoin, peer, &member);
}

void TopClusterNode::propose_membership(rot::EntryType type, NodeId subject,
                                        const Membership* member) {
  if (!raft_.is_leader()) return;
  if (proposal_inflight_.find(subject) != proposal_inflight_.end()) return;
  RaftLogEntry entry;
  entry.type = static_cast<std::uint16_t>(type);
  entry.round = round_;
  entry.subject = subject;
  if (member != nullptr) {
    entry.samples = member->subtree_samples;
    // The negotiated codec rides the log so EVERY member can program the
    // link identically on commit.
    const Codec chosen = collector_.negotiate(member->codec);
    entry.quantize_bits = chosen.quantize_bits;
    entry.topk = chosen.topk;
    entry.delta = chosen.delta ? 1 : 0;
    entry.trace = (member->trace && config_.trace) ? 1 : 0;
  }
  proposal_inflight_.insert(subject);
  raft_.propose_membership(std::move(entry));
  flush_raft();
}

void TopClusterNode::record_view(double reason, NodeId member) {
  if (recorder_ == nullptr) return;
  obs::RoundRecord& rec = recorder_->begin_round("dist_view", round_);
  rec.set("reason", reason);
  rec.set("member", static_cast<double>(member));
  rec.set("term", static_cast<double>(raft_.term()));
}

void TopClusterNode::record_member(const char* runner, NodeId child) {
  if (recorder_ == nullptr) return;
  obs::RoundRecord& rec = recorder_->begin_round(runner, round_);
  rec.set("worker", static_cast<double>(child));
  rec.set("live_workers", static_cast<double>(collector_.live().size()));
}

void TopClusterNode::apply_entry(const RaftLogEntry& entry) {
  const auto type = static_cast<rot::EntryType>(entry.type);
  const double now = wall_now();
  switch (type) {
    case rot::EntryType::kView: {
      // Our own election's no-op committed: leadership is now durable, so
      // perform the takeover — re-derive pending membership (the previous
      // leader's proposal queue died with it) and resume the round.
      if (!raft_.is_leader() || entry.term != raft_.term()) return;
      if (join_gate_met(now)) start_or_resume_training();
      // A snapshot: with one member each proposal commits — and resolves its
      // advertisement — inside the call.
      const std::map<NodeId, Membership> joins = pending_joins_;
      for (const auto& [worker, member] : joins) {
        // Only advertisements that never resolved: a worker already in the
        // committed view, already departed, or mid-leave is NOT re-proposed.
        if (collector_.live().count(worker) == 0 &&
            collector_.left().count(worker) == 0 && leaving_.count(worker) == 0) {
          propose_membership(rot::EntryType::kMemberJoin, worker, &member);
        }
      }
      return;
    }
    case rot::EntryType::kMemberJoin: {
      // A join after a committed eviction is a re-admission.
      const RaftLogEntry* prior =
          latest_membership(raft_.log(), entry.index - 1, entry.subject);
      const bool rejoin = prior != nullptr && static_cast<rot::EntryType>(prior->type) ==
                                                  rot::EntryType::kMemberEvict;
      leaving_.erase(entry.subject);
      // A committed (re)join supersedes any remembered link death — without
      // this, a worker rejoining after a crash would be re-evicted on the
      // leader's next reconciliation tick.
      lost_workers_.erase(entry.subject);
      proposal_inflight_.erase(entry.subject);
      // Admit the worker with the link exactly as the committing leader
      // negotiated it — on every member, so any future leader serves the
      // worker identically.  (Re-negotiating a negotiated codec is a no-op.)
      Membership member = admission(entry);
      const auto join = pending_joins_.find(entry.subject);
      if (join != pending_joins_.end()) member.wall_ns = join->second.wall_ns;
      collector_.on_join(entry.subject, member, round_);
      if (rejoin) {
        ++result_.workers_rejoined;
        record_member("dist_rejoin", entry.subject);
      }
      bb::record(bb::EventType::kViewChange,
                 static_cast<std::uint16_t>(rot::ViewReason::kMemberJoin), id_, round_,
                 raft_.term(), entry.subject);
      record_view(static_cast<double>(rot::ViewReason::kMemberJoin), entry.subject);
      // The advertisement is RESOLVED: drop it so no future takeover can
      // re-propose it.  A worker evicted after this commit is neither live,
      // left nor leaving — a stale advertisement would pass the takeover's
      // unresolved check and resurrect a dead member into the view.
      pending_joins_.erase(entry.subject);
      // Last: a failed send below can append to the log and move `entry`.
      if (raft_.is_leader()) {
        if (started_training_) {
          // A mid-run joiner starts now; a re-admitted one resyncs into round_.
          collector_.echo_join(entry.subject, round_);
        } else if (join_gate_met(now)) {
          start_or_resume_training();
        }
      }
      return;
    }
    case rot::EntryType::kMemberLeave:
    case rot::EntryType::kMemberEvict: {
      // The collector drops a departed member's buffered update: it never
      // counts toward the round.
      const bool leave = type == rot::EntryType::kMemberLeave;
      if (leave) {
        collector_.on_leave(entry.subject, round_);
      } else if (collector_.evict(entry.subject, round_, now)) {
        ++result_.workers_lost;
        record_member("dist_churn", entry.subject);
      }
      leaving_.erase(entry.subject);
      lost_workers_.erase(entry.subject);
      // Any advertisement this departure supersedes dies with it — only a
      // FRESH join (a new message, not a takeover replay) may re-admit.
      pending_joins_.erase(entry.subject);
      proposal_inflight_.erase(entry.subject);
      const auto reason =
          leave ? rot::ViewReason::kMemberLeave : rot::ViewReason::kMemberEvict;
      bb::record(bb::EventType::kViewChange, static_cast<std::uint16_t>(reason), id_,
                 round_, raft_.term(), entry.subject);
      record_view(static_cast<double>(reason), entry.subject);
      maybe_wind_down();
      maybe_aggregate();  // the departure may have completed the quorum
      maybe_finish();
      return;
    }
    case rot::EntryType::kModelCommit: {
      // The round's aggregate is now durable on a majority: install it,
      // and only NOW may the leader broadcast — commit-before-broadcast is
      // what makes a mid-broadcast leader death recoverable bitwise.
      global_ = entry.params;
      const double accuracy =
          core::evaluate_params(data_.prototype, global_, data_.test_set);
      result_.round_accuracy.push_back(accuracy);
      result_.final_accuracy = accuracy;
      result_.rounds_run = static_cast<std::size_t>(entry.round) + 1;
      if (recorder_ != nullptr) {
        obs::RoundRecord& rec = recorder_->begin_round("dist_root", entry.round);
        rec.set("accuracy", accuracy);
        rec.set("live_workers", static_cast<double>(collector_.live().size()));
        rec.set("inputs", static_cast<double>(entry.samples));
      }
      round_ = static_cast<std::size_t>(entry.round) + 1;
      bb::record(bb::EventType::kRound, 0, id_, round_ - 1, entry.samples);
      bb::note_progress(round_);
      if (raft_.is_leader()) {
        collector_.arm();  // the next round starts empty
        broadcast_global(global_, entry.round);  // the log keeps its own copy
        ping_children(round_ - 1);  // not entry: a failed send can grow the log
        round_deadline_ = now + config_.round_timeout_s;
      }
      if (checkpoint_ != nullptr &&
          (round_ % std::max<std::size_t>(checkpoint_every_, 1) == 0 ||
           round_ >= config_.rounds)) {
        save_checkpoint();
      }
      // Phase tracks the LOG on every member, not just the leader: a
      // follower that never won an election still joins training on the
      // first commit and winds down when the round budget is spent.
      if (phase_ == Phase::kJoining) phase_ = Phase::kTraining;
      if (round_ >= config_.rounds && phase_ == Phase::kTraining) {
        phase_ = Phase::kFinishing;
        bb::record(bb::EventType::kPhase, 2, id_, round_);
        bb::set_phase(2, round_);
      } else if (phase_ == Phase::kTraining) {
        bb::set_phase(1, round_, deadline_ns(round_deadline_));
      }
      maybe_finish();
      return;
    }
  }
}

void TopClusterNode::on_leader_change(std::uint64_t term, NodeId leader,
                                      rot::ViewReason reason) {
  if (reason == rot::ViewReason::kElected) {
    bb::record(bb::EventType::kElection, leader == id_ ? 1 : 2, id_, round_, term,
               leader);
    if (recorder_ != nullptr) {
      obs::RoundRecord& rec = recorder_->begin_round("dist_election", round_);
      rec.set("term", static_cast<double>(term));
      rec.set("leader", static_cast<double>(leader));
      rec.set("node", static_cast<double>(id_));
    }
    return;
  }
  if (reason == rot::ViewReason::kLeaderLost) {
    bb::record(bb::EventType::kViewChange,
               static_cast<std::uint16_t>(rot::ViewReason::kLeaderLost), id_, round_,
               term, leader);
    record_view(static_cast<double>(rot::ViewReason::kLeaderLost), leader);
  }
}

void TopClusterNode::start_or_resume_training() {
  started_training_ = true;
  if (phase_ == Phase::kJoining) {
    phase_ = Phase::kTraining;
    result_.workers_joined = collector_.live().size();
    bb::record(bb::EventType::kPhase, 1, id_, round_, collector_.live().size());
  }
  collector_.arm();
  // Re-broadcast the last COMMITTED model first: a worker that missed the
  // dead leader's broadcast merges it and catches up to round_; a worker
  // already at round_ ignores the stale round.  Then the join echoes tell
  // everyone which round this leader is collecting — a worker that already
  // trained it resends its update bitwise (Uplink::EchoAction::kResend).
  const auto& log = raft_.log();
  const std::uint64_t commit = raft_.commit_index();
  for (std::uint64_t i = commit; i >= 1; --i) {
    const RaftLogEntry& entry = log[static_cast<std::size_t>(i) - 1];
    if (static_cast<rot::EntryType>(entry.type) !=
        rot::EntryType::kModelCommit) {
      continue;
    }
    std::vector<float> params = entry.params;
    broadcast_global(params, entry.round);
    break;
  }
  collector_.echo_joins(round_);
  round_deadline_ = wall_now() + config_.round_timeout_s;
  bb::set_phase(1, round_, deadline_ns(round_deadline_));
}

void TopClusterNode::broadcast_global(std::vector<float>& params, std::uint64_t round) {
  // The payload borrows `params` for the fan-out.
  Payload payload(std::in_place_type<PartialModel>);
  auto& partial = std::get<PartialModel>(payload);
  partial.origin = id_;
  partial.is_global = true;
  partial.alpha = static_cast<float>(config_.alpha);
  partial.flag_fraction = 1.0;
  partial.params = std::move(params);
  // A larger committee's callers run inside an UNTRACED committee frame
  // (the ack that advanced the commit index, or the takeover's), so stack
  // parenting would pin the broadcast's net_send spans to trace 0 and orphan
  // every worker's net_recv.  An explicitly-placed round-root span (the
  // aggregator's subtree_agg trick) keeps the cross-process edges in this
  // round's tree instead.
  obs::TraceBuffer* sink = transport_.trace_sink();
  const std::uint64_t trace_id = obs::make_trace_id(config_.seed, round);
  if (sink != nullptr) sink->set_trace_id(trace_id);
  obs::Span bcast_span(sink, "global_agg", obs::SpanContext{trace_id, 0, true},
                       static_cast<std::size_t>(round), id_);
  collector_.fan_out(payload, round);
  params = std::move(partial.params);
}

void TopClusterNode::ping_children(std::uint64_t round) {
  Payload ping(std::in_place_type<StatusRequest>);
  std::get<StatusRequest>(ping).probe = static_cast<std::uint32_t>(round);
  collector_.fan_out(ping, round);  // stamped per send: each link's own t0
}

void TopClusterNode::maybe_aggregate() {
  if (!raft_.is_leader() || phase_ != Phase::kTraining || !started_training_) return;
  // A membership change awaiting commit holds the round: the agreed view
  // must be settled before the quorum it defines can close.
  if (raft_.membership_in_flight()) return;
  if (!collector_.quorum_complete(wall_now())) return;
  // Fold, commit and (a committee of one commits on append) evaluation and
  // broadcast inside the round's global_agg span, usually nested under the
  // last update's net_recv span and its trace context.
  obs::Span agg_span(transport_.trace_sink(), "global_agg", round_, id_);
  // The fold consumes the updates in ascending node id — bitwise the
  // reference loop's fold order.
  std::size_t n_inputs = 0;
  std::vector<float> out = collector_.finish(*rule_, global_, n_inputs);
  // Append, replicate, and WAIT: the model is acted upon (installed,
  // broadcast) only when apply_entry sees it commit.
  (void)raft_.append_model_commit(round_, std::move(out), n_inputs);
  flush_raft();
}

void TopClusterNode::maybe_wind_down() {
  // Derived from the LOG (plus the grace windows its evictions opened), so
  // followers wind down on the same committed entry the leader does — no
  // election is needed just to exit.  Until the join deadline more children
  // may still arrive.
  if (phase_ == Phase::kDone || phase_ == Phase::kFinishing) return;
  if (phase_ == Phase::kJoining && wall_now() < join_deadline_) return;
  if (!collector_.live().empty() || collector_.grace_pending() ||
      collector_.joined().empty()) {
    return;
  }
  phase_ = Phase::kFinishing;
  bb::record(bb::EventType::kPhase, 2, id_, round_);
  bb::set_phase(2, round_);
}

void TopClusterNode::maybe_finish() {
  if (phase_ != Phase::kFinishing) return;
  if (!collector_.live().empty()) return;
  if (!raft_.is_leader()) {
    // Everything this member will ever need is applied; the final ack is
    // already on the wire toward the leader.
    finish_now();
    return;
  }
  // The leader holds its shutdown until the final commit index has reached
  // every committee member that is still alive — otherwise a follower could
  // be left one heartbeat short of the agreed end state.
  if (raft_.commit_index() != raft_.last_index()) return;
  for (std::size_t t = 0; t < config_.top_cluster; ++t) {
    const NodeId peer = top_node_id(t);
    if (peer == id_ || dead_tops_.find(peer) != dead_tops_.end()) continue;
    const auto it = peer_commit_.find(peer);
    if (it == peer_commit_.end() || it->second < raft_.last_index()) return;
  }
  finish_now();
}

void TopClusterNode::finish_now() {
  if (!result_.round_accuracy.empty()) result_.global_model = global_;
  phase_ = Phase::kDone;
  bb::record(bb::EventType::kPhase, 3, id_, round_);
  bb::set_phase(3, round_);
}

void TopClusterNode::reply_status(const StatusRequest& request, NodeId to) {
  if (is_observer(to)) transport_.mark_transient(to);
  StatusReply reply;
  reply.node = id_;
  reply.probe = request.probe;
  reply.round = round_;
  reply.phase = static_cast<std::uint8_t>(phase_);
  reply.live_workers = static_cast<std::uint32_t>(collector_.live().size());
  reply.level = 0;
  reply.parent = raft_.is_leader() || raft_.leader() == rot::kNoLeader
                     ? kStatusNoParent
                     : raft_.leader();
  reply.wall_ns = obs::wall_clock_ns();
  reply.echo_wall_ns = request.wall_ns;
  reply.term = raft_.term();
  reply.leader = raft_.leader() == rot::kNoLeader ? kStatusNoParent : raft_.leader();
  reply.commit_index = raft_.commit_index();
  reply.view_reason = static_cast<std::uint8_t>(raft_.last_view_reason());
  collector_.append_status_peers(reply);
  if (request.detail != 0 && obs::enabled()) {
    reply.metrics = obs::to_prometheus(obs::global_registry().scrape());
  }
  for (std::size_t t = 0; t < config_.top_cluster; ++t) {
    const NodeId member = top_node_id(t);
    if (member == id_) continue;
    StatusPeer peer;
    peer.node = member;
    peer.state = dead_tops_.count(member) != 0 ? 1 : 0;
    const LinkTelemetry link = transport_.peer_telemetry(member);
    peer.rtt_ms = static_cast<float>(link.rtt_ms);
    peer.bytes_sent = link.bytes_sent;
    peer.bytes_received = link.bytes_received;
    reply.peers.push_back(peer);
  }
  (void)transport_.send({id_, to, round_}, reply, kLeaderLinkClass);
}

void TopClusterNode::save_checkpoint() {
  // Right after a commit: global_ is the round's model and round_ the next
  // one to collect.  save_now: the process this guards dies without warning.
  ckpt::Container c;
  c.producer = "root";
  c.round = round_ - 1;
  {
    ckpt::PayloadWriter w;
    w.f32vec(global_);
    c.chunks.push_back({ckpt::kTagParams, w.take()});
  }
  {
    ckpt::PayloadWriter w;
    w.f64vec(result_.round_accuracy);
    w.u64(result_.rounds_run);
    w.u64(result_.workers_joined);
    w.u64(result_.workers_lost);
    w.u64(result_.workers_rejoined);
    c.chunks.push_back({ckpt::kTagResult, w.take()});
  }
  {
    ckpt::PayloadWriter w;
    const auto& joined = collector_.joined();
    w.u64(joined.size());
    for (const auto& [child, samples] : joined) {
      w.u64(child);
      w.u64(samples);
    }
    c.chunks.push_back({ckpt::kTagExtra, w.take()});
  }
  checkpoint_->save_now(c.round, ckpt::encode_container(c));
}

void TopClusterNode::restore_checkpoint() {
  auto snap = checkpoint_->load_latest();
  if (!snap.has_value()) return;  // nothing yet: fresh start
  if (snap->producer != "root") {
    throw ckpt::CkptError("checkpoint produced by \"" + snap->producer +
                          "\", expected \"root\"");
  }
  {
    ckpt::PayloadReader r(snap->require(ckpt::kTagParams).payload);
    auto params = r.f32vec();
    r.expect_done();
    if (params.size() != global_.size()) {
      throw ckpt::CkptError("PARM chunk dimension mismatch: resume with the "
                            "same federation configuration");
    }
    global_ = std::move(params);
  }
  {
    ckpt::PayloadReader r(snap->require(ckpt::kTagResult).payload);
    result_.round_accuracy = r.f64vec();
    result_.rounds_run = static_cast<std::size_t>(r.u64());
    result_.workers_joined = static_cast<std::size_t>(r.u64());
    result_.workers_lost = static_cast<std::size_t>(r.u64());
    result_.workers_rejoined = static_cast<std::size_t>(r.u64());
    r.expect_done();
  }
  {
    ckpt::PayloadReader r(snap->require(ckpt::kTagExtra).payload);
    const auto count = r.u64();
    std::map<NodeId, std::uint64_t> samples;
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto child = static_cast<NodeId>(r.u64());
      samples[child] = r.u64();
    }
    r.expect_done();
    collector_.restore_joined(std::move(samples));
  }
  if (!result_.round_accuracy.empty()) {
    result_.final_accuracy = result_.round_accuracy.back();
  }
  result_.global_model = global_;
  round_ = static_cast<std::size_t>(snap->round) + 1;
  resume_round_ = round_;
  if (recorder_ != nullptr) {
    obs::RoundRecord& rec = recorder_->begin_round("dist_resume", round_);
    rec.set("worker", -1.0);
  }
}

}  // namespace abdhfl::net
