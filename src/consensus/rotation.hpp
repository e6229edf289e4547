#pragma once
// Leader-rotation consensus for the top cluster (DESIGN.md §15).
//
// A Raft-flavored election + replicated-log state machine in the style of
// Asgard/libasraft: heartbeat-driven failure detection with randomized
// election timeouts, monotonic terms, follower/candidate/leader roles, and a
// replicated log whose entries are term-stamped global-model commits and
// first-class membership changes (join/leave/evict, one change in flight at
// a time).  Any member that wins an election holds every committed model
// entry — the vote up-to-dateness restriction guarantees it — so the new
// leader can serve the last agreed global model bitwise-identically.
//
// The class is transport-agnostic and clock-agnostic: the owner feeds it
// decoded wire messages plus a monotonic `now`, pumps tick(), and drains
// take_outbox() — every protocol decision is a pure function of (inputs,
// now, seed), which is what makes elections unit-testable without sockets
// and the loopback failover drill deterministic.  Election timeouts are
// drawn from a hash of (seed, self, term), with the lowest-ranked member
// getting the shortest first-term timeout so a quiet cluster elects member
// rank 0 first, deterministically.
//
// Scope: the top-cluster membership itself (Config::members) is static —
// the paper's leader-rotating top cluster is a small fixed committee.  What
// churns is the *worker* membership below it, and that churn is exactly
// what the kMemberJoin/kMemberLeave/kMemberEvict log entries carry: every
// top node applies the same committed view in the same order, re-admissions
// included, so even a committee of one (the classic root) changes its view
// only through the log.

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <vector>

#include "net/wire.hpp"

namespace abdhfl::consensus::rotation {

using net::NodeId;

enum class Role : std::uint8_t { kFollower = 0, kCandidate = 1, kLeader = 2 };

/// Replicated-log entry taxonomy (RaftLogEntry::type).
enum class EntryType : std::uint16_t {
  kView = 0,         // no-op a new leader appends to commit prior-term entries
  kModelCommit = 1,  // round's aggregated global model (params)
  kMemberJoin = 2,   // worker joined (samples + negotiated codec ride along)
  kMemberLeave = 3,  // worker said goodbye
  kMemberEvict = 4,  // worker lost (transport peer loss at the leader)
};

/// Why the view last changed (StatusReply::view_reason).
enum class ViewReason : std::uint8_t {
  kNone = 0,
  kElected = 1,      // a leader won an election
  kLeaderLost = 2,   // the known leader stopped heartbeating / its link died
  kMemberJoin = 3,   // a membership-join entry committed
  kMemberLeave = 4,  // a membership-leave entry committed
  kMemberEvict = 5,  // a membership-evict entry committed
};

[[nodiscard]] const char* to_string(Role role) noexcept;
[[nodiscard]] const char* to_string(EntryType type) noexcept;
[[nodiscard]] const char* to_string(ViewReason reason) noexcept;

/// Sentinel for "no known leader".
inline constexpr NodeId kNoLeader = 0xFFFFFFFFu;

struct Config {
  NodeId self = 0;
  std::vector<NodeId> members;  // the whole committee, self included
  std::uint64_t seed = 1;       // election-timeout determinism
  double heartbeat_s = 0.05;    // leader keepalive period
  double election_min_s = 0.25;  // randomized timeout lower bound
  double election_max_s = 0.50;  // randomized timeout upper bound
  std::size_t max_batch = 4;     // log entries per AppendEntries frame
};

/// One protocol frame the owner must put on the wire.
struct Outgoing {
  NodeId to = 0;
  net::Payload payload;
};

class Node {
 public:
  explicit Node(Config config);

  /// Arm the timers; call once with the current monotonic time before the
  /// first tick().  A single-member committee elects itself immediately.
  void start(double now);

  // -- inputs (decoded frames + time) ---------------------------------------

  /// Drive timers: election timeouts, leader heartbeats, queued membership
  /// proposals.  Call between transport polls.
  void tick(double now);
  void on_vote_request(const net::VoteRequest& m, double now);
  void on_vote_reply(const net::VoteReply& m, double now);
  /// Moves the entries out of `m` on acceptance.
  void on_append_entries(net::AppendEntries& m, double now);
  void on_heartbeat(const net::Heartbeat& m, double now);
  /// Transport-level peer loss (EOF/RST): losing the current leader's link
  /// short-circuits the election timeout — failover starts on the next tick.
  void on_peer_loss(NodeId peer, double now);

  // -- leader API -----------------------------------------------------------

  /// Append a round's aggregated model (leader only).  Returns the entry's
  /// log index, 0 when this node is not the leader.  `inputs` (the number of
  /// updates folded) rides the entry's samples field so every member can
  /// report it.  The owner must NOT act on the model until on_commit
  /// delivers the entry back.
  std::uint64_t append_model_commit(std::uint64_t round, std::vector<float> params,
                                    std::uint64_t inputs = 0);

  /// Queue a membership change (leader only; ignored otherwise).  View
  /// changes are single-change-at-a-time: the next queued entry is appended
  /// only once every previously appended membership entry has committed.
  void propose_membership(net::RaftLogEntry entry);

  /// True while an appended membership entry awaits commit.
  [[nodiscard]] bool membership_in_flight() const noexcept;

  // -- observers ------------------------------------------------------------

  [[nodiscard]] Role role() const noexcept { return role_; }
  [[nodiscard]] bool is_leader() const noexcept { return role_ == Role::kLeader; }
  [[nodiscard]] std::uint64_t term() const noexcept { return term_; }
  [[nodiscard]] NodeId leader() const noexcept { return leader_; }
  [[nodiscard]] std::uint64_t commit_index() const noexcept { return commit_; }
  [[nodiscard]] std::uint64_t last_index() const noexcept { return log_.size(); }
  [[nodiscard]] const std::vector<net::RaftLogEntry>& log() const noexcept {
    return log_;
  }
  [[nodiscard]] ViewReason last_view_reason() const noexcept { return view_reason_; }
  /// Elections this node has observed conclude (own wins + adopted leaders).
  [[nodiscard]] std::uint64_t elections_seen() const noexcept { return elections_; }

  // -- callbacks (set before start()) ---------------------------------------

  /// Applied exactly once per committed entry, in log order, on every member.
  std::function<void(const net::RaftLogEntry&)> on_commit;
  /// The view's leader changed: a win, an adoption, or a loss (kNoLeader).
  std::function<void(std::uint64_t term, NodeId leader, ViewReason reason)>
      on_leader_change;

  /// Drain the frames generated since the last call.
  [[nodiscard]] std::vector<Outgoing> take_outbox();

 private:
  [[nodiscard]] std::size_t majority() const noexcept;
  [[nodiscard]] std::uint64_t term_at(std::uint64_t index) const noexcept;
  [[nodiscard]] double draw_timeout(double now) const;
  void reset_election_timer(double now);
  void start_election(double now);
  void become_leader(double now);
  void step_down(std::uint64_t term, double now);
  void adopt_leader(NodeId leader, ViewReason reason);
  void replicate(double now, bool force);
  void send_to_peer(NodeId peer, double now);
  void advance_commit();
  void apply_committed();
  void maybe_append_queued_membership();
  [[nodiscard]] bool membership_uncommitted() const noexcept;
  void send(NodeId to, net::Payload payload);

  Config config_;
  Role role_ = Role::kFollower;
  std::uint64_t term_ = 0;
  NodeId leader_ = kNoLeader;
  NodeId voted_for_ = kNoLeader;
  std::set<NodeId> votes_;
  std::vector<net::RaftLogEntry> log_;
  std::uint64_t commit_ = 0;
  std::uint64_t applied_ = 0;
  // Leader bookkeeping, rebuilt on every election win.
  std::vector<std::uint64_t> next_index_;   // parallel to config_.members
  std::vector<std::uint64_t> match_index_;
  std::deque<net::RaftLogEntry> membership_queue_;
  double election_deadline_ = 0.0;
  double heartbeat_at_ = 0.0;
  ViewReason view_reason_ = ViewReason::kNone;
  std::uint64_t elections_ = 0;
  std::vector<Outgoing> outbox_;
};

}  // namespace abdhfl::consensus::rotation
