#pragma once
// The benchmark's window into a live federation: a LoopbackTransport whose
// send(), poll() and every registered handler are observed from outside the
// node classes.
//
// Untraced, it costs one branch per send plus one clock read per round: a
// round ends when the top of the tree (RootNode, or the leading
// TopClusterNode) sends the first PartialModel{is_global} of that round.  A
// loopback poll() drains a whole run in one call, so these send-side stamps
// are the only round boundaries an outside observer can see.
//
// Traced (a TraceBuffer attached with set_trace), it also opens one span per
// send ("bench.send"), per poll ("bench.poll") and per handler invocation,
// named after the receiving node's role ("bench.root", "bench.leaf_head",
// ...).  Those nest with the spans the program already emits (net_send,
// net_recv, train, subtree_agg, global_agg, merge) in the same buffer, which
// is what layers.hpp turns into per-layer self times.
//
// Fault injection: arm_kill() SIGKILLs the node that sends the global model
// of a chosen round, at the next frame boundary.  The victim's handler goes
// dead, sends to or from it fail with kPeerLost, and every peer-loss handler
// fires.  Frames it already handed to the transport are still delivered, as
// bytes already written to a socket are; delivery keeps LoopbackTransport's
// deliver_frame path.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/loopback.hpp"

namespace fedbench {

using abdhfl::net::NodeId;

enum class Role : std::uint8_t { kRoot, kMid, kLeafHead, kDevice, kTop, kWorker };

class MeteredLoopback : public abdhfl::net::LoopbackTransport {
 public:
  static constexpr std::size_t kKinds = std::variant_size_v<abdhfl::net::Payload>;

  MeteredLoopback() = default;
  // Registered handlers capture `this`.
  MeteredLoopback(const MeteredLoopback&) = delete;
  MeteredLoopback& operator=(const MeteredLoopback&) = delete;

  /// Role of a node id, used to name its handler spans.  Ids at or above
  /// topology::kVirtualDeviceIdBase default to kDevice.
  void set_role(NodeId id, Role role) { roles_[id] = role; }
  /// Tells leader from follower among kTop nodes at handler time.
  void set_leader_probe(std::function<bool(NodeId)> probe) { leader_probe_ = std::move(probe); }
  /// Kill whichever node sends the global model of `round`.
  void arm_kill(std::size_t round) {
    kill_round_ = round;
    kill_armed_ = true;
  }

  void register_node(NodeId id, MessageHandler handler) override;
  abdhfl::net::SendStatus send(const abdhfl::net::Envelope& env,
                               const abdhfl::net::Payload& payload,
                               std::uint32_t link_class = 0) override;
  std::size_t poll(double timeout_s) override;

  /// Steady-clock seconds at which round r's global model was first sent.
  [[nodiscard]] const std::vector<double>& round_ends() const noexcept { return round_ends_; }
  [[nodiscard]] bool killed() const noexcept { return dead_ != kNoNode; }
  [[nodiscard]] NodeId victim() const noexcept { return dead_; }
  [[nodiscard]] double kill_time() const noexcept { return kill_time_; }
  /// Frames handed to the wire, by payload kind (variant index = MsgKind - 1).
  [[nodiscard]] const std::array<std::uint64_t, kKinds>& frames_by_kind() const noexcept {
    return frames_by_kind_;
  }
  /// Wire bytes of those frames, by payload kind.
  [[nodiscard]] const std::array<std::uint64_t, kKinds>& bytes_by_kind() const noexcept {
    return bytes_by_kind_;
  }
  /// Largest number of sent-but-undelivered bytes seen (traced runs only).
  [[nodiscard]] std::uint64_t backlog_max() const noexcept { return backlog_max_; }

 private:
  static constexpr NodeId kNoNode = ~NodeId{0};

  void kill_now();
  [[nodiscard]] const char* handler_span(NodeId id) const;

  std::map<NodeId, Role> roles_;
  std::function<bool(NodeId)> leader_probe_;
  std::vector<double> round_ends_;
  std::array<std::uint64_t, kKinds> frames_by_kind_{};
  std::array<std::uint64_t, kKinds> bytes_by_kind_{};
  std::uint64_t backlog_max_ = 0;
  bool kill_armed_ = false;
  bool kill_pending_ = false;
  std::size_t kill_round_ = 0;
  NodeId pending_victim_ = kNoNode;
  NodeId dead_ = kNoNode;
  double kill_time_ = 0.0;
};

}  // namespace fedbench
