#pragma once
// The federation's top level (DESIGN.md §9.3, §15): a leader-rotating
// committee that agrees on the global model.
//
// N co-equal TopClusterNodes elect a leader with the consensus::rotation
// protocol and the LEADER coordinates the children — it gates the join
// phase, collects the round's updates in ascending id order, aggregates
// with the root rule, and broadcasts the result.  The classic single root
// is a committee of ONE under kRootId (`RootNode`): it elects itself on its
// first tick and commits every entry on append, without a frame of
// consensus traffic.  Collection is the same hier::Collector every other
// tier uses; this class adds only what agreement needs: the elections, the
// log, commit-before-broadcast, the takeover, and the proposal buffers that
// feed membership into the log.  The aggregated model is NOT broadcast
// until it has been committed through the log, so when the leader dies at
// any instant, the member that wins the next election holds every committed
// round bitwise-identically and the federation resumes inside the round it
// stalled in:
//
//   1. the new leader re-broadcasts the last COMMITTED global model — a
//      worker that missed the dead leader's broadcast merges it now, a
//      worker that already merged it ignores the stale round;
//   2. it echoes every committed member's join with the current collection
//      round — the re-targeting handshake.  A worker that already trained
//      this round answers with a bitwise RESEND of its update (never a
//      retrain: retraining would advance the RNG streams), a worker that
//      just caught up trains normally;
//   3. collection re-arms and the round completes under the new term.
//
// Child membership is first-class: joins, leaves, evictions and
// re-admissions (a transport reconnect from an evicted child) are
// replicated log entries (one view change in flight at a time), carrying
// the subtree samples and the negotiated per-link codec, and every member
// applies them to its collector on commit — so EVERY member can adopt a
// child the moment it becomes leader.  A committed eviction drops the
// child's update even when it has already arrived.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregator.hpp"
#include "consensus/rotation.hpp"
#include "net/hier/roles.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"

namespace abdhfl::net {

class TopClusterNode {
 public:
  /// `transport` must outlive the node; the node registers itself as
  /// committee member `top_index` (kRootId when config.top_cluster == 0) and
  /// expects links to the other members plus every child.  `checkpoint`
  /// (optional, not owned; a committee of one only, std::invalid_argument
  /// otherwise: the log replicates a larger one) snapshots the global model,
  /// round, result and joined-child ledger after every `checkpoint_every`-th
  /// commit and the final one.  With `resume` the latest snapshot is
  /// restored here; the node still runs a fresh join phase, and its join
  /// echo carries the restored round.
  TopClusterNode(FederationConfig config, std::size_t top_index, Transport& transport,
                 obs::Recorder* recorder = nullptr, ckpt::Store* checkpoint = nullptr,
                 std::size_t checkpoint_every = 1, bool resume = false);
  /// The classic root: committee member 0 (kRootId when top_cluster == 0).
  TopClusterNode(FederationConfig config, Transport& transport,
                 obs::Recorder* recorder = nullptr, ckpt::Store* checkpoint = nullptr,
                 std::size_t checkpoint_every = 1, bool resume = false)
      : TopClusterNode(std::move(config), 0, transport, recorder, checkpoint,
                       checkpoint_every, resume) {}

  /// Arm the election timers and tick once: a committee of one elects itself
  /// here, committee rank 0 deterministically wins the first term on a quiet
  /// larger cluster; the leader then gates the join phase.
  void start();
  /// Drive timers (elections, heartbeats, grace windows, join/round
  /// deadlines); call between poll()s.
  void on_idle();

  [[nodiscard]] bool done() const noexcept { return phase_ == Phase::kDone; }
  [[nodiscard]] const RootResult& result() const noexcept { return result_; }
  /// First round this process will collect (> 0 iff a snapshot was restored).
  [[nodiscard]] std::size_t resume_round() const noexcept { return resume_round_; }

  // -- consensus observers ----------------------------------------------------
  [[nodiscard]] std::uint64_t term() const noexcept { return raft_.term(); }
  [[nodiscard]] NodeId leader() const noexcept { return raft_.leader(); }
  [[nodiscard]] bool is_leader() const noexcept { return raft_.is_leader(); }
  [[nodiscard]] std::uint64_t commit_index() const noexcept {
    return raft_.commit_index();
  }
  [[nodiscard]] std::uint64_t elections_seen() const noexcept {
    return raft_.elections_seen();
  }
  [[nodiscard]] consensus::rotation::ViewReason last_view_reason() const noexcept {
    return raft_.last_view_reason();
  }
  /// The replicated log (membership audit trail + committed models).
  [[nodiscard]] const std::vector<RaftLogEntry>& log() const noexcept {
    return raft_.log();
  }
  [[nodiscard]] std::size_t rounds_run() const noexcept { return round_; }

 private:
  enum class Phase { kJoining, kTraining, kFinishing, kDone };

  void on_message(WireMessage& msg);
  void on_peer_loss(NodeId peer);
  /// Leader only, mid-training: propose re-admission of a child the log
  /// evicted, from its last committed advertisement.
  void on_peer_reconnect(NodeId peer);
  /// Whether `peer` is another committee member (not a child).
  [[nodiscard]] bool is_member(NodeId peer) const noexcept {
    return peer >= top_node_id(0) && peer < top_node_id(config_.top_cluster);
  }
  /// Put every frame the rotation state machine generated on the wire.
  void flush_raft();
  [[nodiscard]] bool join_gate_met(double now) const;
  /// Leader only: propose a membership entry unless one for `subject` is
  /// already queued or in flight.
  void propose_membership(consensus::rotation::EntryType type, NodeId subject,
                          const Membership* member);
  /// Applied-committed-entry dispatcher (fires on every member, in log order).
  void apply_entry(const RaftLogEntry& entry);
  void on_leader_change(std::uint64_t term, NodeId leader,
                        consensus::rotation::ViewReason reason);
  /// Leader only, after winning an election or meeting the join gate:
  /// re-broadcast the last committed model, echo every member's join with
  /// the current round, re-arm collection.
  void start_or_resume_training();
  /// Leader only: send a committed global model to every live child,
  /// borrowing `params` for the fan-out.
  void broadcast_global(std::vector<float>& params, std::uint64_t round);
  /// Leader only: per-round RTT probes to every live child.
  void ping_children(std::uint64_t round);
  void maybe_aggregate();
  /// Everyone who ever joined is gone, no grace window awaits a return and
  /// the join phase is over: the run winds down.
  void maybe_wind_down();
  void maybe_finish();
  void finish_now();
  void reply_status(const StatusRequest& request, NodeId to);
  void record_view(double reason, NodeId member);
  void record_member(const char* runner, NodeId child);
  void save_checkpoint();
  void restore_checkpoint();

  FederationConfig config_;
  NodeId id_;
  Transport& transport_;
  obs::Recorder* recorder_;
  ckpt::Store* checkpoint_;
  std::size_t checkpoint_every_;
  std::size_t resume_round_ = 0;
  FederationData data_;
  std::unique_ptr<agg::Aggregator> rule_;
  consensus::rotation::Node raft_;
  std::size_t expected_children_;  // joins that meet the join gate
  // Committed child view and the leader's round collection.  Membership is
  // applied from committed log entries only, so the view is identical on
  // every member.
  hier::Collector collector_;
  Phase phase_ = Phase::kJoining;
  bool started_training_ = false;
  std::vector<float> global_;  // last committed global model
  std::size_t round_ = 0;      // round currently being collected
  double join_deadline_ = 0.0;
  double round_deadline_ = 0.0;
  // Local (uncommitted) buffers.
  std::map<NodeId, Membership> pending_joins_;  // broadcast joins seen
  std::set<NodeId> leaving_;                    // leave received, not committed
  std::set<NodeId> proposal_inflight_;          // membership proposed, uncommitted
  std::set<NodeId> lost_workers_;               // links died, eviction not committed
  std::map<NodeId, std::uint64_t> peer_commit_;   // followers' applied progress
  std::set<NodeId> dead_tops_;
  RootResult result_;
};

/// The classic root is a committee of one.
using RootNode = TopClusterNode;

}  // namespace abdhfl::net
