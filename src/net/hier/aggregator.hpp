#pragma once
// Interior node of the N-level tree (DESIGN.md §14.2): Collector toward its
// children, Uplink toward its parent — a root to the level below, a worker
// to the level above.  One class covers every depth:
//
//   mid-level aggregator — children are other processes over TCP.  Folds
//     their updates with the cluster rule (reference = the last global it
//     forwarded down), sends the fold up, forwards the root's PartialModel
//     broadcast down unchanged.
//   leaf head — children are this process's own virtual devices over a
//     LoopbackTransport (VirtualDeviceHost).  Behaves exactly like the
//     2-level WorkerNode toward its parent: disseminates its current model
//     to the devices, folds their updates (reference = that model), sends
//     the fold up, Eq.-1 merges the arriving global.
//
// Join propagation: the node sends its own join UP only once every expected
// child joined (subtree samples = the children's sum), so a join reaching
// the root vouches for a complete subtree.  The starting gun propagates the
// other way: the parent's join echo carries the round, the node adopts it
// and echoes its own children's joins (or disseminates to its devices) with
// the same round — the whole tree starts on one clock.
//
// Parent loss is survivable (the mid-tier restart path): the node keeps
// serving its subtree, re-sends its join on a timer until the parent —
// possibly a restarted process — answers, and a round-matching echo makes it
// resend its cached fold WITHOUT retraining, which is what keeps the final
// model bitwise identical when the parent held the round open under
// rejoin_grace_s.

#include <cstdint>
#include <memory>
#include <vector>

#include "agg/aggregator.hpp"
#include "net/hier/roles.hpp"
#include "net/hier/vdev.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "topology/plan.hpp"

namespace abdhfl::net::hier {

class AggregatorNode {
 public:
  /// An aggregator at process `level` (1 .. process_levels-1), sibling-order
  /// `index`, of the tree config.tree describes (throws std::invalid_argument
  /// when the spec is missing or malformed).  `up` carries the parent link,
  /// `down` the child links; a mid-level aggregator usually passes the same
  /// TcpTransport for both, a leaf head passes its TCP transport up and its
  /// LoopbackTransport down (the node then hosts
  /// spec.devices_per_leaf() virtual devices on it — see device_host()).
  /// Both transports must outlive the node.  `checkpoint` persists the
  /// node's round state after every `checkpoint_every`-th round (see
  /// DESIGN.md §14.4); `resume` restores the latest snapshot first.
  AggregatorNode(FederationConfig config, std::size_t level, std::size_t index,
                 Transport& up, Transport& down, obs::Recorder* recorder = nullptr,
                 ckpt::Store* checkpoint = nullptr, std::size_t checkpoint_every = 1,
                 bool resume = false);

  /// Arm deadlines and (leaf heads) send the virtual devices' joins.  The
  /// node's own join goes up once the children's joins complete.
  void start();
  /// Deadline bookkeeping, grace-window expiry and parent-rejoin retries;
  /// call between poll()s.
  void on_idle();

  [[nodiscard]] bool done() const noexcept { return phase_ == Phase::kDone; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// Leaf head: its final merged model (the 2-level worker's model()).
  /// Mid-level: the last global it forwarded down.
  [[nodiscard]] const std::vector<float>& model() const noexcept { return down_model_; }
  [[nodiscard]] std::size_t rounds_run() const noexcept { return round_; }
  [[nodiscard]] std::size_t resume_round() const noexcept { return resume_round_; }
  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] NodeId parent() const noexcept { return parent_; }
  [[nodiscard]] std::size_t level() const noexcept { return level_; }
  [[nodiscard]] bool leaf_head() const noexcept { return host_ != nullptr; }
  /// The hosted virtual devices (null for mid-level aggregators).
  [[nodiscard]] VirtualDeviceHost* device_host() noexcept { return host_.get(); }

 private:
  enum class Phase { kJoining, kTraining, kFinishing, kDone };

  void on_message(WireMessage& msg);
  void on_parent_message(WireMessage& msg);
  void on_child_message(WireMessage& msg);
  void on_down_peer_loss(NodeId peer);
  void on_up_peer_loss(NodeId peer);
  void on_peer_reconnect(NodeId peer);
  /// The starting gun, downward: echo child joins (mid) or disseminate the
  /// current model to the devices (leaf) for round_.
  void begin_round_down();
  void disseminate_to_devices();
  /// Tell every live child to stop (kShutdown).
  void shutdown_children();
  /// Fold + send up once the quorum is complete and no grace window holds.
  void maybe_forward_up();
  void maybe_finish();
  void finish(bool failed);
  void note_parent_lost();
  void reply_status(const StatusRequest& request, NodeId to);
  void record_round(double inputs);
  void save_checkpoint();
  void restore_checkpoint();

  FederationConfig config_;
  topology::HierSpec spec_;
  topology::HierPlan plan_;
  std::size_t level_;
  std::size_t index_;
  NodeId id_;
  NodeId parent_;
  Transport& up_;
  Transport& down_;
  obs::Recorder* recorder_;
  ckpt::Store* checkpoint_;
  std::size_t checkpoint_every_;
  std::size_t resume_round_ = 0;
  FederationData data_;
  std::unique_ptr<agg::Aggregator> rule_;  // cluster rule at every interior node
  Collector collector_;
  Uplink uplink_;
  std::unique_ptr<VirtualDeviceHost> host_;  // leaf heads only
  std::uint32_t child_link_class_;
  std::vector<float> down_model_;  // last model disseminated down
  std::vector<float> last_sent_;   // last fold sent up
  std::size_t last_sent_round_ = kNeverSent;
  std::size_t round_ = 0;
  Phase phase_ = Phase::kJoining;
  double phase_deadline_ = 0.0;
  bool parent_lost_ = false;
  double next_rejoin_ = 0.0;  // parent-rejoin retry clock
  bool failed_ = false;

  static constexpr std::size_t kNeverSent = static_cast<std::size_t>(-1);
  /// Parent-rejoin retry cadence while the parent link is down.
  static constexpr double kRejoinRetryS = 0.5;
};

}  // namespace abdhfl::net::hier
