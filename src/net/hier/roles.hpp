#pragma once
// Reusable federation roles (DESIGN.md §14).
//
// Every node of an N-level tree needs two behaviours in some combination:
//
//   Collector — the DOWN-facing role: child membership (join/leave/evict/
//     re-admit), per-link codec negotiation, the suspicion ledger, the
//     deterministic id-ordered update collection fold, and the fan-out of a
//     payload to every live child.
//   Uplink    — the UP-facing role: join/leave/update/ping senders toward a
//     parent, join-echo processing (codec adoption, round adoption, RTT and
//     clock-offset estimation), and the borrow-don't-copy update send.
//
// The root (a TopClusterNode committee) is a Collector plus the rotation
// log, WorkerNode is Uplink + training, and an AggregatorNode at any
// interior level is both at once.  The roles carry protocol mechanics
// only; phase machines, JSONL records, results and checkpoints stay with
// the owning node.  Live and left are disjoint, the first update per child
// per round wins, and arm() starts every round empty.
//
// Churn grace (FederationConfig::rejoin_grace_s): with a grace window
// configured, a lost child that had joined is remembered for that window
// and the collector HOLDS the round's aggregation while any window is
// open.  If the child's process comes back (mid-tier kill + --resume), the
// transport reconnect path re-admits it (a join releases its hold) and the
// round completes with the full quorum — which is what makes the final
// model bitwise identical to an uninterrupted run.  An expired window releases the hold and the round
// proceeds degraded, exactly the grace=0 behaviour.

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "agg/aggregator.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"

namespace abdhfl::net::hier {

/// Steady-clock seconds; the wall clock every phase deadline uses.
[[nodiscard]] inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Steady-clock seconds → the ns tag the blackbox status block reports for
/// phase deadlines (informational; same clock as wall_now()).
[[nodiscard]] inline std::uint64_t deadline_ns(double deadline_s) {
  return deadline_s <= 0.0 ? 0 : static_cast<std::uint64_t>(deadline_s * 1e9);
}

/// NTP-style estimates from one request/reply exchange: t0 = our send stamp
/// (echoed back), t1 = the remote's reply stamp, t3 = now.  rtt = t3 - t0;
/// offset = t1 - midpoint, i.e. remote_wall ≈ local_wall + offset.
struct EchoEstimate {
  double rtt_ms = 0.0;
  double offset_ns = 0.0;
};

[[nodiscard]] EchoEstimate estimate_from_echo(std::int64_t echoed_t0,
                                              std::int64_t remote_t1);

// ---------------------------------------------------------------------------

class Collector {
 public:
  struct Options {
    NodeId self = 0;                    // kRootId for the classic root
    std::size_t expected_children = 0;  // joins that complete the join phase
    NodeId first_child = 1;             // echo.cluster = child - first_child
    std::uint32_t link_class = 1;       // kLeaderLinkClass by default
    Codec codec;                        // this node's negotiation bounds
    bool trace = false;
    double rejoin_grace_s = 0.0;        // 0 = evict immediately (no hold)
  };

  Collector(Transport& transport, Options opts);

  // -- membership -----------------------------------------------------------

  /// Admit a joining child: live set (clearing an earlier leave and any
  /// grace hold), subtree samples, join timestamp, codec negotiation,
  /// tracing capability.
  /// Returns true once every expected child has joined.
  bool on_join(NodeId from, const Membership& member, std::size_t round);

  /// The codec a link gets: the child's advertisement bounded by our own
  /// config.  Quantization takes the coarser of the two, top-k the smaller k
  /// (only when both asked for it), delta only when both sides opted in.
  [[nodiscard]] Codec negotiate(const Codec& advertised) const noexcept;

  /// Send one join echo — the starting gun / resync frame.  The envelope
  /// round tells the child which round this collector is collecting.
  void echo_join(NodeId child, std::size_t round);
  /// Echo every live child's join (the begin-training broadcast).
  void echo_joins(std::size_t round);

  /// A child said goodbye: take it out of the live set, drop its buffered
  /// update, and remember it so its EOF is not churn.
  void on_leave(NodeId from, std::size_t round);

  /// Peer-loss path: evict a live member (live set, buffered update, EWMA
  /// suspicion bump toward 1).  Returns false when the loss is not churn
  /// (unknown peer, already left or evicted).  With a grace window
  /// configured, a child that had joined is remembered until
  /// `now + rejoin_grace_s` and the round's quorum stays incomplete until it
  /// reconnects or the window expires.
  bool evict(NodeId peer, std::size_t round, double now);

  /// Transport-reconnect path: re-admit a member the loss path evicted and
  /// send it a resync join echo.  Only for a child that joined this run and
  /// has not said goodbye.
  bool readmit(NodeId peer, std::size_t round);

  /// Prune expired grace windows; true when one expired (the owner should
  /// re-check the quorum — the hold may just have been released).
  bool expire_grace(double now);
  /// Whether any evicted-under-grace child is still awaited.
  [[nodiscard]] bool grace_pending() const noexcept { return !grace_until_.empty(); }

  // -- collection -----------------------------------------------------------

  /// Start a round's collection empty.
  void arm();

  /// The guard chain (round match, live member, `param_count` parameters,
  /// no update yet this round — the first one wins), suspicion decay,
  /// buffer.  Moves the update's params out on acceptance.  Returns true
  /// when accepted (the owner then checks quorum_complete()); a rejected
  /// update leaves the child undelivered, so the round deadline evicts it.
  bool accept_update(const Envelope& env, ModelUpdate& update, std::size_t round,
                     std::size_t param_count);

  [[nodiscard]] bool has_update(NodeId child) const;
  /// Every live child's update buffered, and no grace window holds the
  /// round open (false while live is empty).
  [[nodiscard]] bool quorum_complete(double now);

  /// Complete the round's fold: set the rule's reference and aggregate the
  /// buffered updates in ascending child id.  `n_inputs` reports how many
  /// updates went in.
  [[nodiscard]] std::vector<float> finish(agg::Aggregator& rule,
                                          std::span<const float> reference,
                                          std::size_t& n_inputs);

  /// Send `payload` to every live child, enveloped with `round` (a
  /// StatusRequest is restamped per send: each link's own RTT t0).
  void fan_out(Payload& payload, std::uint64_t round);

  // -- introspection / persistence ------------------------------------------

  [[nodiscard]] const std::set<NodeId>& live() const noexcept { return live_; }
  [[nodiscard]] const std::set<NodeId>& left() const noexcept { return left_; }
  /// Every member that ever joined, with its subtree sample count.
  [[nodiscard]] const std::map<NodeId, std::uint64_t>& joined() const noexcept {
    return subtree_samples_;
  }
  /// Checkpoint restore: replace the joined-member ledger.
  void restore_joined(std::map<NodeId, std::uint64_t> samples) {
    subtree_samples_ = std::move(samples);
  }
  [[nodiscard]] std::uint64_t total_subtree_samples() const;
  /// One StatusPeer row per member that ever joined, live or not.
  void append_status_peers(StatusReply& reply) const;

 private:
  /// Take a child out of the live set with its buffered update.
  void drop(NodeId child);

  Transport& transport_;
  Options opts_;
  std::set<NodeId> live_;
  std::set<NodeId> left_;
  std::map<NodeId, std::uint64_t> subtree_samples_;
  std::map<NodeId, std::int64_t> join_wall_ns_;  // echoed back in the join echo
  // Per-child suspicion EWMA: bumped on peer loss, decayed on every accepted
  // update — the "is this member flaky" number a status probe reports.
  std::map<NodeId, double> suspicion_;
  std::map<NodeId, double> grace_until_;          // evicted, awaited back
  std::map<NodeId, std::vector<float>> pending_;  // current round's updates
};

// ---------------------------------------------------------------------------

class Uplink {
 public:
  struct Options {
    NodeId self = 0;
    NodeId parent = 0;              // kRootId for a classic worker
    std::uint32_t cluster = 0;      // join.cluster / leave.cluster
    std::uint32_t link_class = 1;   // kLeaderLinkClass by default
    std::uint32_t level = 1;        // ModelUpdate.level of sent updates
    Codec codec;                    // advertised in the join
    bool trace = false;
  };

  Uplink(Transport& transport, Options opts);

  /// Advertise ourselves to the parent (codec, trace capability, subtree
  /// weight, send stamp for the first RTT sample).
  SendStatus send_join(std::uint64_t subtree_samples);
  /// Same advertisement toward an arbitrary node — a top-cluster worker
  /// joins every committee member so whichever one wins the election
  /// already holds its join.
  SendStatus send_join_to(NodeId to, std::uint64_t subtree_samples);

  /// What a join echo means for the owner's state machine.
  enum class EchoAction {
    kStart,   // first echo: adopt the envelope round and start training
    kResync,  // echoed round differs: adopt it and rejoin that quorum
    kResend,  // new parent, same round: resend the last update — never retrain
    kNone,    // own round echoed back: the retried update already covers it
  };

  /// Process a join echo: adopt the negotiated codec and tracing, fold the
  /// echoed timestamps into RTT/clock-offset estimates (the parent's clock
  /// is the reference the trace merge aligns to).  An echo from a node other
  /// than the current parent RE-TARGETS the uplink to the sender — that is
  /// the leader-change handshake: a newly elected leader echoes every
  /// committed member's join, and the echo's envelope round tells the worker
  /// whether its in-flight update must be resent (kResend, round matches —
  /// the already-trained model is resent bitwise, never retrained) or its
  /// round adopted first (kResync).
  EchoAction on_join_echo(const WireMessage& msg, std::size_t round);

  /// Point every subsequent send at a new parent (leader re-targeting).
  void retarget(NodeId new_parent) { opts_.parent = new_parent; }

  /// Send this round's update, lending `params` to the frame for the
  /// duration of the send (no O(d) staging copy).
  SendStatus send_update(std::vector<float>& params, std::uint64_t samples,
                         std::size_t round);

  SendStatus send_leave(std::size_t round);

  /// Per-round RTT heartbeat toward the parent.
  void send_status_ping(std::size_t round);
  /// A status reply from any peer: fold its echoed timestamps into the
  /// link's RTT estimate; a reply from the parent also refreshes the trace
  /// clock offset.
  void on_status_reply(const WireMessage& msg);

  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] NodeId parent() const noexcept { return opts_.parent; }

 private:
  Transport& transport_;
  Options opts_;
  std::uint32_t probe_seq_ = 0;
  bool started_ = false;
  // Where the most recent update actually went, and for which round.  A join
  // echo compares against these to decide kResend: "did the parent change" is
  // not a usable test because a stale partial from the new leader retargets
  // the parent pointer before its echo arrives.
  NodeId last_update_to_ = 0;
  std::size_t last_update_round_ = static_cast<std::size_t>(-1);
};

}  // namespace abdhfl::net::hier
