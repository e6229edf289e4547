#pragma once
// Leader-rotating top cluster (DESIGN.md §15).
//
// N co-equal TopClusterNodes replace the single RootNode: they elect a
// leader among themselves with the consensus::rotation protocol and the
// LEADER plays the classic root — it gates the join phase, collects the
// round's worker updates in ascending id order, aggregates with the root
// rule, and broadcasts the result.  Collection is the same hier::Collector
// every other tier uses; this class adds only what agreement needs: the
// elections, the log, commit-before-broadcast, the takeover, and the
// proposal buffers that feed membership into the log.  The difference is
// durability: the aggregated model is NOT broadcast until it has been
// replicated and committed through the rotation log, so when the leader
// dies at any instant, the member that wins the next election holds every
// committed round bitwise-identically and the federation resumes inside
// the round it stalled in:
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
// Worker membership is first-class: joins, leaves and evictions are
// replicated log entries (one view change in flight at a time), carrying
// the subtree samples and the negotiated per-link codec, and every member
// applies them to its collector on commit — so EVERY member, not just
// whoever handled the handshake, can adopt a worker the moment it becomes
// leader.  A committed eviction drops the worker's update even when it has
// already arrived.  This replaces the classic root's ad-hoc rejoin path: a
// worker rejoining under a new leader is echoed the committed round, not a
// stale one.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "agg/aggregator.hpp"
#include "consensus/rotation.hpp"
#include "net/hier/roles.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"

namespace abdhfl::net {

class TopClusterNode {
 public:
  /// `transport` must outlive the node; the node registers itself under
  /// top_node_id(top_index) and expects links to every other committee
  /// member plus every worker (workers dial all tops).
  TopClusterNode(FederationConfig config, std::size_t top_index, Transport& transport,
                 obs::Recorder* recorder = nullptr);

  /// Arm the election timers.  Committee rank 0 deterministically wins the
  /// first term on a quiet cluster; the join gate then runs as the classic
  /// root's does.
  void start();
  /// Drive timers (elections, heartbeats, join/round deadlines); call
  /// between poll()s.
  void on_idle();

  [[nodiscard]] bool done() const noexcept { return phase_ == Phase::kDone; }
  [[nodiscard]] const RootResult& result() const noexcept { return result_; }

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
  /// Leader only: send a committed global model to every live worker,
  /// borrowing `params` for the fan-out.
  void broadcast_global(std::vector<float>& params, std::uint64_t round);
  void maybe_aggregate();
  void maybe_finish();
  void finish_now();
  void reply_status(const StatusRequest& request, NodeId to);
  void record_view(double reason, NodeId member);

  FederationConfig config_;
  std::size_t index_;
  NodeId id_;
  Transport& transport_;
  obs::Recorder* recorder_;
  FederationData data_;
  std::unique_ptr<agg::Aggregator> rule_;
  consensus::rotation::Node raft_;
  // Committed worker view and the leader's round collection.  Membership is
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

}  // namespace abdhfl::net
